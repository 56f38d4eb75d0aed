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

# Coverage gate for the billing subsystem: every test in internal/ledger/...
# (unit, durability, crash harness) counts toward internal/ledger coverage,
# which must stay >= $(COVER_MIN)%. The profile lands in cover_ledger.out
# (CI uploads it as an artifact).
COVER_MIN := 80
cover:
	go test -covermode=atomic -coverpkg=./internal/ledger -coverprofile=cover_ledger.out ./internal/ledger/...
	@total=$$(go tool cover -func=cover_ledger.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/ledger coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min=$(COVER_MIN) 'BEGIN { exit (t+0 >= min) ? 0 : 1 }' || \
	{ echo "coverage $$total% is below $(COVER_MIN)%"; exit 1; }

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
