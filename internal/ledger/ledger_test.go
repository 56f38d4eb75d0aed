package ledger

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
)

func mustNew(t *testing.T, cfg Config) *Ledger {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// mustClose fails the test if Close errors: on a durable ledger Close is
// the final WAL sync, and a silent failure there could mask durability bugs.
func mustClose(t testing.TB, l *Ledger) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Errorf("ledger close: %v", err)
	}
}

func accrue(t *testing.T, l *Ledger, e Entry) {
	t.Helper()
	out, err := l.Accrue(e)
	if err != nil || out != Accrued {
		t.Fatalf("Accrue(%+v) = %v, %v", e, out, err)
	}
}

func TestAccrueAndSummary(t *testing.T) {
	l := mustNew(t, Config{})
	accrue(t, l, Entry{Tenant: "acme", Pricer: "litmus", Commercial: 10, Price: 8})
	accrue(t, l, Entry{Tenant: "acme", Pricer: "litmus", Commercial: 20, Price: 15})
	accrue(t, l, Entry{Tenant: "zeta", Pricer: "commercial", Commercial: 5, Price: 5})

	sum, ok := l.Summary("acme")
	if !ok || sum.Invocations != 2 || sum.Commercial != 30 || sum.Billed != 23 {
		t.Errorf("summary = %+v, %v", sum, ok)
	}
	want := 1 - 23.0/30.0
	if math.Abs(sum.Discount-want) > 1e-12 {
		t.Errorf("discount = %v, want %v", sum.Discount, want)
	}
	if _, ok := l.Summary("ghost"); ok {
		t.Error("unknown tenant has a summary")
	}
}

func TestAccrueValidation(t *testing.T) {
	l := mustNew(t, Config{})
	// Computed so the expression stays legal on 32-bit ints, where it wraps
	// negative — rejected either way.
	pastMax := MaxMinute
	pastMax++
	for name, e := range map[string]Entry{
		"no tenant":       {Commercial: 1, Price: 1},
		"negative price":  {Tenant: "t", Commercial: 1, Price: -1},
		"negative minute": {Tenant: "t", Minute: -1},
		"huge minute":     {Tenant: "t", Minute: pastMax},
	} {
		if _, err := l.Accrue(e); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if st := l.Stats(); st.Accrued != 0 || st.Tenants != 0 {
		t.Errorf("invalid entries changed state: %+v", st)
	}
	if _, err := New(Config{MaxTenants: -1}); err == nil {
		t.Error("negative config accepted")
	}
	if _, err := New(Config{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
}

func TestIdempotencyDedup(t *testing.T) {
	l := mustNew(t, Config{})
	e := Entry{Tenant: "acme", Pricer: "litmus", Commercial: 10, Price: 8, Key: "run#1"}
	accrue(t, l, e)
	out, err := l.Accrue(e)
	if err != nil || out != Duplicate {
		t.Fatalf("replay = %v, %v, want Duplicate", out, err)
	}
	// The replay billed nothing.
	sum, _ := l.Summary("acme")
	if sum.Invocations != 1 || sum.Billed != 8 {
		t.Errorf("replay double-billed: %+v", sum)
	}
	// A distinct key bills normally; keyless entries never dedup.
	accrue(t, l, Entry{Tenant: "acme", Commercial: 1, Price: 1, Key: "run#2"})
	accrue(t, l, Entry{Tenant: "acme", Commercial: 1, Price: 1})
	accrue(t, l, Entry{Tenant: "acme", Commercial: 1, Price: 1})
	sum, _ = l.Summary("acme")
	if sum.Invocations != 4 {
		t.Errorf("invocations = %d, want 4", sum.Invocations)
	}
	st := l.Stats()
	if st.Duplicates != 1 || st.KeysTracked != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIdempotencyKeysScopedPerTenant(t *testing.T) {
	l := mustNew(t, Config{})
	accrue(t, l, Entry{Tenant: "a", Price: 1, Key: "retry#1"})
	// Another tenant reusing (or guessing) the same key must still bill —
	// a global namespace would let one tenant suppress another's billing.
	out, err := l.Accrue(Entry{Tenant: "b", Price: 1, Key: "retry#1"})
	if err != nil || out != Accrued {
		t.Fatalf("cross-tenant key reuse = %v, %v, want Accrued", out, err)
	}
	sum, _ := l.Summary("b")
	if sum.Invocations != 1 {
		t.Errorf("tenant b was not billed: %+v", sum)
	}
	// Within a tenant the key still dedups.
	if out, _ := l.Accrue(Entry{Tenant: "b", Price: 1, Key: "retry#1"}); out != Duplicate {
		t.Errorf("same-tenant replay = %v, want Duplicate", out)
	}
}

func TestKeyEvictionFIFO(t *testing.T) {
	// One shard pins the whole key budget to one FIFO; with more shards the
	// budget splits (see TestKeyBudgetSplitsAcrossShards).
	l := mustNew(t, Config{MaxKeys: 2, Shards: 1})
	for i := 0; i < 3; i++ {
		accrue(t, l, Entry{Tenant: "t", Price: 1, Key: fmt.Sprintf("k%d", i)})
	}
	st := l.Stats()
	if st.KeysTracked != 2 || st.KeysEvicted != 1 {
		t.Fatalf("stats = %+v, want 2 tracked / 1 evicted", st)
	}
	// The oldest key was evicted, so its replay re-bills (the documented
	// hazard the counter exists to surface); the newest still dedups.
	if out, _ := l.Accrue(Entry{Tenant: "t", Price: 1, Key: "k0"}); out != Accrued {
		t.Errorf("evicted key replay = %v, want Accrued", out)
	}
	if out, _ := l.Accrue(Entry{Tenant: "t", Price: 1, Key: "k2"}); out != Duplicate {
		t.Errorf("retained key replay = %v, want Duplicate", out)
	}
}

func TestTenantCapObservable(t *testing.T) {
	l := mustNew(t, Config{MaxTenants: 2})
	accrue(t, l, Entry{Tenant: "a", Price: 1})
	accrue(t, l, Entry{Tenant: "b", Price: 1})
	out, err := l.Accrue(Entry{Tenant: "c", Price: 1, Key: "c#1"})
	if err != nil || out != Dropped {
		t.Fatalf("over-cap accrual = %v, %v, want Dropped", out, err)
	}
	st := l.Stats()
	if st.Dropped != 1 || st.Tenants != 2 || st.MaxTenants != 2 {
		t.Errorf("stats = %+v", st)
	}
	// A dropped entry's key is not recorded: the retry after capacity frees
	// up (or against a bigger ledger) must not be mistaken for a duplicate.
	if st.KeysTracked != 0 {
		t.Errorf("dropped entry recorded its key: %+v", st)
	}
	// Existing tenants keep accruing at the cap.
	accrue(t, l, Entry{Tenant: "a", Price: 1})
}

// TestWindowBillsOrder: a window's per-pricer bills are kept sorted, so the
// order pricers arrive in cannot tell two windows apart — what lets a
// recovered or replicated window equal the live one.
func TestWindowBillsOrder(t *testing.T) {
	var a, b pricerBills
	for _, p := range []string{"litmus", "commercial", "zeta", "litmus", "alpha"} {
		a.add(p, 1)
	}
	for _, p := range []string{"alpha", "zeta", "litmus", "commercial", "litmus"} {
		b.add(p, 1)
	}
	want := pricerBills{{"alpha", 1}, {"commercial", 1}, {"litmus", 2}, {"zeta", 1}}
	if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
		t.Fatalf("bills %v and %v, want %v", a, b, want)
	}
}

// TestNewWindowAllocs pins what a window costs: billing a fresh minute of an
// existing account allocates the window and its bills slice, nothing else,
// and billing a window again allocates nothing.
func TestNewWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	l := mustNew(t, Config{Shards: 1})
	e := Entry{Tenant: "acme", Pricer: "litmus", Commercial: 2, Price: 1}
	// Give the account's window map room for every measured minute, so the
	// runs below count the window, not the map's growth.
	for e.Minute = 0; e.Minute < 256; e.Minute++ {
		accrue(t, l, e)
	}
	sh := l.shardFor(e.Tenant)
	sh.mu.Lock()
	clear(sh.accounts[e.Tenant].Windows)
	sh.mu.Unlock()
	bill := func() {
		if o, err := l.Accrue(e); o != Accrued || err != nil {
			t.Fatalf("minute %d: %v, %v", e.Minute, o, err)
		}
	}
	fresh := func() { e.Minute++; bill() }
	if allocs := testing.AllocsPerRun(100, fresh); allocs != 2 {
		t.Errorf("billing a new window allocates %v times, want 2 (the window and its bills)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, bill); allocs != 0 {
		t.Errorf("billing an existing window allocates %v times, want 0", allocs)
	}
}

func TestStatementWindows(t *testing.T) {
	l := mustNew(t, Config{WindowMinutes: 2})
	for _, e := range []Entry{
		{Tenant: "acme", Pricer: "litmus", Minute: 0, Commercial: 10, Price: 8},
		{Tenant: "acme", Pricer: "commercial", Minute: 1, Commercial: 4, Price: 4},
		{Tenant: "acme", Pricer: "litmus", Minute: 5, Commercial: 6, Price: 3},
	} {
		accrue(t, l, e)
	}
	st, ok := l.Statement("acme", 0, -1)
	if !ok {
		t.Fatal("no statement")
	}
	if st.WindowMinutes != 2 || len(st.Lines) != 2 {
		t.Fatalf("statement = %+v", st)
	}
	w0, w2 := st.Lines[0], st.Lines[1]
	if w0.Window != 0 || w0.StartMinute != 0 || w0.Invocations != 2 || w0.Commercial != 14 || w0.Billed != 12 {
		t.Errorf("window 0 = %+v", w0)
	}
	if w0.Bills["litmus"] != 8 || w0.Bills["commercial"] != 4 {
		t.Errorf("window 0 bills = %v", w0.Bills)
	}
	if w2.Window != 2 || w2.StartMinute != 4 || w2.Billed != 3 {
		t.Errorf("window 2 = %+v", w2)
	}
	if st.Invocations != 3 || st.Commercial != 20 || st.Billed != 15 {
		t.Errorf("totals = %+v", st)
	}

	// A bounded range includes only overlapping windows, and totals follow.
	ranged, _ := l.Statement("acme", 4, 5)
	if len(ranged.Lines) != 1 || ranged.Lines[0].Window != 2 || ranged.Invocations != 1 || ranged.Billed != 3 {
		t.Errorf("ranged statement = %+v", ranged)
	}
	// Minute 1 falls inside window 0 even though the window starts earlier.
	overlap, _ := l.Statement("acme", 1, 1)
	if len(overlap.Lines) != 1 || overlap.Lines[0].Window != 0 {
		t.Errorf("overlap statement = %+v", overlap)
	}
	if empty, _ := l.Statement("acme", 100, 200); len(empty.Lines) != 0 || empty.Billed != 0 {
		t.Errorf("empty-range statement = %+v", empty)
	}
	if _, ok := l.Statement("ghost", 0, -1); ok {
		t.Error("unknown tenant has a statement")
	}
}

func TestTenantsPagination(t *testing.T) {
	l := mustNew(t, Config{})
	for i := 0; i < 5; i++ {
		accrue(t, l, Entry{Tenant: fmt.Sprintf("t%02d", i), Price: float64(i)})
	}
	var got []string
	cursor := ""
	pages := 0
	for {
		sums, next := l.Tenants(cursor, 2)
		pages++
		for _, s := range sums {
			got = append(got, s.Tenant)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if pages != 3 || len(got) != 5 {
		t.Fatalf("pages = %d, tenants = %v", pages, got)
	}
	for i, name := range got {
		if want := fmt.Sprintf("t%02d", i); name != want {
			t.Errorf("tenant %d = %q, want %q (sorted, no dups)", i, name, want)
		}
	}
	if sums, next := l.Tenants("zzz", 2); len(sums) != 0 || next != "" {
		t.Errorf("past-the-end page = %v, %q", sums, next)
	}
	if sums, _ := l.Tenants("", 0); sums != nil {
		t.Errorf("zero limit returned %v", sums)
	}
}

// TestConcurrentAccrual hammers the ledger from many goroutines; run with
// -race this proves the locking discipline, and the deterministic totals
// prove no accrual was lost or doubled.
func TestConcurrentAccrual(t *testing.T) {
	l := mustNew(t, Config{})
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tenant := fmt.Sprintf("t%d", i%4)
				// Half the entries share keys across workers: exactly one
				// worker wins each key.
				key := ""
				if i%2 == 0 {
					key = fmt.Sprintf("shared/%s/%d", tenant, i)
				}
				e := []Entry{{Tenant: tenant, Pricer: "litmus", Minute: i % 10, Commercial: 2, Price: 1, Key: key}}
				// Odd workers bill through the batch path, whose probe pass
				// reads the index beside the others' accruals; every
				// worker peeks through the batched peek too.
				if w%2 == 1 {
					l.AccrueBatch(e, make([]AccrualResult, 1))
				} else {
					l.Accrue(e[0])
				}
				l.SeenBatch(e, make([]bool, 1))
				l.Summary(tenant)
				l.Tenants("", 10)
				l.Statement(tenant, 0, -1)
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	// Keyed entries: perWorker/2 distinct keys, each billed once; keyless:
	// workers × perWorker/2.
	wantAccrued := uint64(perWorker/2 + workers*perWorker/2)
	if st.Accrued != wantAccrued {
		t.Errorf("accrued = %d, want %d", st.Accrued, wantAccrued)
	}
	if st.Accrued+st.Duplicates != uint64(workers*perWorker) {
		t.Errorf("accrued %d + duplicates %d != %d entries", st.Accrued, st.Duplicates, workers*perWorker)
	}
	var total float64
	sums, _ := l.Tenants("", 10)
	for _, s := range sums {
		total += s.Billed
	}
	if math.Abs(total-float64(wantAccrued)) > 1e-9 {
		t.Errorf("billed total = %v, want %v", total, float64(wantAccrued))
	}
}

func TestShardStatsSumToTotals(t *testing.T) {
	l := mustNew(t, Config{Shards: 8})
	if l.Shards() != 8 {
		t.Fatalf("Shards() = %d", l.Shards())
	}
	for i := 0; i < 100; i++ {
		accrue(t, l, Entry{Tenant: fmt.Sprintf("t%03d", i), Price: 1, Key: "k"})
	}
	st := l.Stats()
	if len(st.Shards) != 8 {
		t.Fatalf("stats shards = %d", len(st.Shards))
	}
	var tenants, keys int
	spread := 0
	for _, ss := range st.Shards {
		tenants += ss.Tenants
		keys += ss.KeysTracked
		if ss.Tenants > 0 {
			spread++
		}
	}
	if tenants != st.Tenants || tenants != 100 || keys != st.KeysTracked || keys != 100 {
		t.Errorf("per-shard sums = %d tenants / %d keys, stats = %+v", tenants, keys, st)
	}
	// 100 hashed tenants landing on one stripe would mean the hash is broken.
	if spread < 2 {
		t.Errorf("all tenants hashed to %d shard(s)", spread)
	}
}

func TestKeyBudgetSplitsAcrossShards(t *testing.T) {
	// MaxKeys is a global budget: with 4 shards each stripe retains at most
	// ceil(8/4) = 2 keys, so a single tenant (one shard) evicts past 2.
	l := mustNew(t, Config{MaxKeys: 8, Shards: 4})
	for i := 0; i < 3; i++ {
		accrue(t, l, Entry{Tenant: "t", Price: 1, Key: fmt.Sprintf("k%d", i)})
	}
	st := l.Stats()
	if st.KeysTracked != 2 || st.KeysEvicted != 1 {
		t.Errorf("stats = %+v, want 2 tracked / 1 evicted", st)
	}
}

func TestTenantCapExactUnderConcurrentShards(t *testing.T) {
	// Hammer a tiny global cap from many goroutines spread across shards:
	// the add-then-check admission must never overshoot, and every accrual
	// beyond the cap must be counted as a drop.
	const maxT = 10
	l := mustNew(t, Config{MaxTenants: maxT, Shards: 16})
	const workers = 8
	const perWorker = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Accrue(Entry{Tenant: fmt.Sprintf("w%d-t%d", w, i), Price: 1})
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Tenants != maxT {
		t.Errorf("tenants = %d, want exactly %d", st.Tenants, maxT)
	}
	if st.Accrued != maxT || st.Dropped != workers*perWorker-maxT {
		t.Errorf("accrued %d / dropped %d, want %d / %d", st.Accrued, st.Dropped, maxT, workers*perWorker-maxT)
	}
}

// TestTenantsPaginationUnderConcurrentAccrue walks the cursor pagination
// while writers keep inserting new tenants across shards. Every walk must
// come back sorted with no duplicates, and every tenant that existed before
// the walk started must appear exactly once — the per-shard snapshot merge
// may additionally surface tenants inserted mid-walk, but can never skip or
// repeat one.
func TestTenantsPaginationUnderConcurrentAccrue(t *testing.T) {
	l := mustNew(t, Config{Shards: 8})
	const pre = 150
	for i := 0; i < pre; i++ {
		accrue(t, l, Entry{Tenant: fmt.Sprintf("pre-%04d", i), Price: 1})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Interleave brand-new names with accruals to existing ones
				// so walks race both inserts and account mutation.
				l.Accrue(Entry{Tenant: fmt.Sprintf("new-%d-%06d", w, i), Price: 1})
				l.Accrue(Entry{Tenant: fmt.Sprintf("pre-%04d", i%pre), Price: 1})
			}
		}(w)
	}

	for walk := 0; walk < 30; walk++ {
		seen := make(map[string]bool)
		var prev string
		cursor := ""
		for {
			page, next := l.Tenants(cursor, 7)
			if next != "" && len(page) == 0 {
				t.Fatalf("walk %d: empty page with cursor %q", walk, next)
			}
			for _, s := range page {
				if s.Tenant <= prev {
					t.Fatalf("walk %d: unsorted page: %q after %q", walk, s.Tenant, prev)
				}
				if seen[s.Tenant] {
					t.Fatalf("walk %d: tenant %q repeated", walk, s.Tenant)
				}
				seen[s.Tenant] = true
				prev = s.Tenant
			}
			if next == "" {
				break
			}
			cursor = next
		}
		for i := 0; i < pre; i++ {
			if name := fmt.Sprintf("pre-%04d", i); !seen[name] {
				t.Fatalf("walk %d: pre-existing tenant %q skipped", walk, name)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// windowHolds reads one (tenant, key) pair straight from its shard's
// window, without a probe pass: what SeenBatch's grouped probes must
// answer.
func windowHolds(l *Ledger, tenant, key string) bool {
	if tenant == "" || key == "" {
		return false
	}
	sh := l.shardFor(tenant)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dedup.seen(nameKey(tenant, key))
}

// SeenBatch answers exactly what the window holds for each entry, and Seen
// what SeenBatch does, on seeded batches longer than one probe chunk that
// reach every shard: keyless entries, an empty tenant, keys repeated inside
// the batch, keys never billed, and billed keys on both sides of the
// eviction edge of a window small enough to forget them.
func TestSeenBatchMatchesSeen(t *testing.T) {
	for _, cfg := range []Config{{Shards: 1, MaxKeys: 100}, {Shards: 8, MaxKeys: 256}, {Shards: 16}} {
		t.Run(fmt.Sprintf("shards=%d,keys=%d", cfg.Shards, cfg.MaxKeys), func(t *testing.T) {
			l := mustNew(t, cfg)
			rng := rand.New(rand.NewPCG(7, uint64(cfg.Shards)))
			tenant := func() string { return fmt.Sprintf("t%d", rng.IntN(64)) }
			var billed []Entry
			var found, forgotten int
			for round := 0; round < 12; round++ {
				for range 120 {
					e := Entry{Tenant: tenant(), Price: 1, Key: fmt.Sprintf("k%d", len(billed))}
					accrue(t, l, e)
					billed = append(billed, e)
				}
				batch := make([]Entry, probeChunk+1+rng.IntN(2*probeChunk))
				for i := range batch {
					switch r := rng.IntN(8); {
					case r == 0:
						batch[i] = Entry{Tenant: tenant()}
					case r == 1:
						batch[i] = Entry{Key: billed[rng.IntN(len(billed))].Key}
					case r == 2 && i > 0:
						batch[i] = batch[rng.IntN(i)]
					case r == 3:
						batch[i] = Entry{Tenant: tenant(), Key: fmt.Sprintf("never%d", i)}
					default:
						// The newest keys, reaching back past the smaller
						// windows' budgets: some remembered, some just
						// forgotten.
						batch[i] = billed[len(billed)-1-rng.IntN(min(len(billed), 400))]
					}
				}
				// Stale answers, as a reused buffer holds: SeenBatch must
				// overwrite each of the batch's and leave the one past it.
				seen := make([]bool, len(batch)+1)
				for i := range seen {
					seen[i] = true
				}
				l.SeenBatch(batch, seen[:len(batch)])
				shards := map[*shard]bool{}
				for i, e := range batch {
					if want := windowHolds(l, e.Tenant, e.Key); seen[i] != want || l.Seen(e.Tenant, e.Key) != want {
						t.Fatalf("round %d entry %d %+v: SeenBatch %v, Seen %v, the window holds it: %v",
							round, i, e, seen[i], l.Seen(e.Tenant, e.Key), want)
					}
					shards[l.shardFor(e.Tenant)] = true
					switch {
					case seen[i]:
						found++
					case e.Tenant != "" && e.Key != "" && e.Key[0] == 'k':
						forgotten++
					}
				}
				if !seen[len(batch)] {
					t.Fatal("SeenBatch wrote past the batch")
				}
				if len(shards) != cfg.Shards {
					t.Fatalf("round %d reached %d of %d shards", round, len(shards), cfg.Shards)
				}
			}
			if found == 0 || (cfg.MaxKeys > 0 && forgotten == 0) {
				t.Errorf("%d keys found, %d billed keys forgotten: the batches missed a case", found, forgotten)
			}
		})
	}
}
