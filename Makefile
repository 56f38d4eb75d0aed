# Developer entry points; CI runs the same steps (see .github/workflows/ci.yml).

.PHONY: build test race bench paper cover recovery-smoke failover-smoke fmt vet \
	litmusvet lint lint-tools

build:
	go build ./...

test:
	go test ./...

race:
	go test -race -shuffle=on ./...

# The repository's benchmark of the billing path (BENCHMARK.json; metric
# definitions and arguments in bench/README.md).
bench:
	bash bench/run.sh

# The reproduced-vs-paper report: every artifact at the configuration the
# claim bands and the golden CSV are stated at, ≈30 s. Lines carrying
# "paper" are the per-figure deltas; CI uploads the whole report.
paper:
	@go run ./cmd/litmusbench -all -seed 7 -scale 0.12

# Coverage gates for the billing subsystem and the service that bills into
# it: every test in internal/ledger/... (unit, durability, crash harness)
# counts toward internal/ledger coverage, which must stay >= $(COVER_MIN)%,
# and every test in internal/api/... toward internal/api coverage, which must
# stay >= $(COVER_API_MIN)%. The profiles land in cover_ledger.out and
# cover_api.out (CI uploads them as artifacts).
COVER_MIN := 90
COVER_API_MIN := 90
# cover_check,<profile>,<package>,<floor> fails unless the profile's total
# reaches the floor.
cover_check = total=$$(go tool cover -func=$(1) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "$(2) coverage: $$total% (floor $(3)%)"; \
	awk -v t="$$total" -v min=$(3) 'BEGIN { exit (t+0 >= min) ? 0 : 1 }' || \
	{ echo "$(2) coverage $$total% is below $(3)%"; exit 1; }
cover:
	go test -covermode=atomic -coverpkg=./internal/ledger -coverprofile=cover_ledger.out ./internal/ledger/...
	@$(call cover_check,cover_ledger.out,internal/ledger,$(COVER_MIN))
	go test -covermode=atomic -coverpkg=./internal/api -coverprofile=cover_api.out ./internal/api/...
	@$(call cover_check,cover_api.out,internal/api,$(COVER_API_MIN))

# Process-level crash-recovery smoke: SIGKILL a durable pricingd mid-run and
# prove the restarted daemon serves identical statements.
recovery-smoke:
	./scripts/recovery-smoke.sh

# Process-level failover smoke: replicate a primary into a hot standby,
# SIGKILL the primary with an unreplicated tail, promote, replay — the
# promoted node must bill exactly like an uninterrupted one.
failover-smoke:
	./scripts/failover-smoke.sh

fmt:
	gofmt -l .

vet:
	go vet ./...

# --- static analysis ---------------------------------------------------------

# Pinned third-party linter versions: lint-tools installs exactly these (it
# needs network, so CI runs it and caches the binaries); lint itself runs
# them only when installed, so offline checkouts still get the full
# first-party suite.
STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

lint-tools:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# The repo's own analyzers (see internal/analysis), run through go vet so
# results are cached per package like any other vet check. go build is
# incremental, so rebuilding the tool each run costs almost nothing.
litmusvet:
	go build -o bin/litmusvet ./cmd/litmusvet
	go vet -vettool=$(abspath bin/litmusvet) ./...

lint: litmusvet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (make lint-tools pins $(STATICCHECK_VERSION))"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping (make lint-tools pins $(GOVULNCHECK_VERSION))"; fi
