// Package ledgertest is the differential test harness behind the ledger's
// billing guarantees: it generates deterministic, replayable entry streams,
// drives them into ledgers — sequentially or from concurrent writers — and
// compares every observable byte for byte (Diff).
//
// The harness is test support code kept out of _test files so the ledger's
// replication and failover tests, and the api and cluster packages, can
// reuse the generator and Diff. The oracle it holds the ledger to is not
// exported: a pure sequential model in this package's tests (model_test.go)
// restates the billing rules from the ledger's exported docs in plain maps
// and shares no function with package ledger.
//
// Two drive modes cover the two halves of the guarantee:
//
//   - DriveSequential bills entries in one fixed order, so any float
//     amounts compare bit-identically (same additions, same order) and the
//     per-entry Outcome sequences must match exactly.
//   - DriveConcurrent bills per-worker substreams from goroutines, in
//     seeded batch sizes, where accrual order differs run to run; streams
//     generated with Exact use dyadic amounts whose partial sums are
//     exactly representable, making totals order-independent so equality
//     still holds to the last bit.
package ledgertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/ledger"
)

// GenConfig shapes a generated stream. Zero fields select the defaults in
// parentheses.
type GenConfig struct {
	// Workers is the number of substreams (4); PerWorker the entries in
	// each (256).
	Workers   int
	PerWorker int
	// Tenants is the tenant universe size (16). Keep it under the target
	// ledger's MaxTenants unless the drive order is deterministic: which
	// tenants survive a cap race is timing-dependent by design.
	Tenants int
	// Minutes spreads entries over trace minutes [0, Minutes) (32).
	Minutes int
	// KeyEvery makes every k-th entry carry an idempotency key (3);
	// negative disables keys. Keyed entries are drawn from a shared
	// deterministic pool, so the same key always carries the same amounts —
	// retry semantics — and replays collide across workers.
	KeyEvery int
	// KeySpace is the distinct keys per tenant in that pool (64).
	KeySpace int
	// Exact draws amounts as dyadic rationals (multiples of 1/1024) so sums
	// are exactly representable and order-independent; required for
	// DriveConcurrent equivalence.
	Exact bool
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.PerWorker == 0 {
		c.PerWorker = 256
	}
	if c.Tenants == 0 {
		c.Tenants = 16
	}
	if c.Minutes == 0 {
		c.Minutes = 32
	}
	if c.KeyEvery == 0 {
		c.KeyEvery = 3
	}
	if c.KeySpace == 0 {
		c.KeySpace = 64
	}
	return c
}

// Stream is a deterministic entry stream partitioned into per-worker
// substreams of equal length.
type Stream struct {
	Workers [][]ledger.Entry
	seed    int64 // Generate's, which also draws DriveConcurrent's batch cuts
}

var pricers = []string{"litmus", "commercial", "litmus-method1"}

// amounts draws a (commercial, price) pair; dyadic when exact.
func amounts(r *rand.Rand, exact bool) (float64, float64) {
	if exact {
		c := float64(r.Intn(1<<20)) / 1024
		return c, float64(r.Intn(1<<20)) / 1024
	}
	c := r.Float64() * 10
	return c, c * r.Float64()
}

// Generate builds a stream from seed. Keyed entries are deterministic
// functions of (tenant, key index): every occurrence of a key — in any
// worker, in any run — carries identical amounts, as a retried accrual
// would.
func Generate(seed int64, cfg GenConfig) *Stream {
	cfg = cfg.withDefaults()
	s := &Stream{Workers: make([][]ledger.Entry, cfg.Workers), seed: seed}
	for w := range s.Workers {
		r := rand.New(rand.NewSource(seed + int64(w)*1_000_003))
		sub := make([]ledger.Entry, cfg.PerWorker)
		for i := range sub {
			tenant := fmt.Sprintf("tenant-%03d", r.Intn(cfg.Tenants))
			if cfg.KeyEvery > 0 && i%cfg.KeyEvery == 0 {
				sub[i] = keyedEntry(tenant, r.Intn(cfg.KeySpace), cfg)
			} else {
				c, p := amounts(r, cfg.Exact)
				sub[i] = ledger.Entry{
					Tenant:     tenant,
					Pricer:     pricers[r.Intn(len(pricers))],
					Minute:     r.Intn(cfg.Minutes),
					Commercial: c,
					Price:      p,
				}
			}
		}
		s.Workers[w] = sub
	}
	return s
}

// keyedEntry derives the one entry a (tenant, key index) pair ever carries.
func keyedEntry(tenant string, k int, cfg GenConfig) ledger.Entry {
	h := int64(0)
	for _, b := range []byte(tenant) {
		h = h*131 + int64(b)
	}
	r := rand.New(rand.NewSource(h*7919 + int64(k)))
	c, p := amounts(r, cfg.Exact)
	return ledger.Entry{
		Tenant:     tenant,
		Pricer:     pricers[r.Intn(len(pricers))],
		Minute:     r.Intn(cfg.Minutes),
		Commercial: c,
		Price:      p,
		Key:        fmt.Sprintf("key-%d", k),
	}
}

// Len returns the total entry count.
func (s *Stream) Len() int {
	n := 0
	for _, sub := range s.Workers {
		n += len(sub)
	}
	return n
}

// sequence returns the stream's entries in one fixed round-robin
// interleaving of the substreams: the order DriveSequential bills them in.
func (s *Stream) sequence() []ledger.Entry {
	entries := make([]ledger.Entry, 0, s.Len())
	for i := 0; ; i++ {
		done := true
		for _, sub := range s.Workers {
			if i >= len(sub) {
				continue
			}
			done = false
			entries = append(entries, sub[i])
		}
		if done {
			return entries
		}
	}
}

// DriveSequential bills sequence one entry per AccrueBatch call and returns
// every entry's outcome in that order. Driving two ledgers sequentially
// applies identical entries in an identical order, so every observable —
// outcomes included — must match exactly, whatever the amounts.
func (s *Stream) DriveSequential(l *ledger.Ledger) []ledger.Outcome {
	entries := s.sequence()
	results := make([]ledger.AccrualResult, len(entries))
	outcomes := make([]ledger.Outcome, len(entries))
	for i := range entries {
		l.AccrueBatch(entries[i:i+1], results[i:i+1])
		outcomes[i] = results[i].Outcome
	}
	return outcomes
}

// maxDriveBatch is the largest batch DriveConcurrent cuts: a production
// collector's flush (api's usage batch) is 256 records.
const maxDriveBatch = 256

// DriveConcurrent bills each substream from its own goroutine, in substream
// order, through AccrueBatch in batches of 1 to maxDriveBatch entries, and
// returns when all writers finish. Batch sizes come from the stream's seed,
// each under a cap of maxDriveBatch>>k for k uniform in 0..8, so short
// batches are as common as long ones. Cross-worker interleaving is whatever
// the scheduler produces.
func (s *Stream) DriveConcurrent(l *ledger.Ledger) {
	var wg sync.WaitGroup
	for w, sub := range s.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(s.seed*7919 + int64(w)))
			results := make([]ledger.AccrualResult, len(sub))
			for lo := 0; lo < len(sub); {
				hi := min(lo+1+r.Intn(maxDriveBatch>>r.Intn(9)), len(sub))
				l.AccrueBatch(sub[lo:hi], results[lo:hi])
				lo = hi
			}
		}()
	}
	wg.Wait()
}

// View is what Diff reads of a billing store: a *ledger.Ledger, or the
// model this package's tests hold one to.
type View interface {
	Stats() ledger.Stats
	Tenants(cursor string, limit int) ([]ledger.Summary, string)
	Summary(tenant string) (ledger.Summary, bool)
	Statement(tenant string, fromMinute, toMinute int) (ledger.Statement, bool)
}

// Diff compares every observable of two quiescent stores and returns a
// description of the first divergence, or nil when they are equivalent:
//
//   - Stats scalars (accrued/duplicates/dropped, tenant and key counts) —
//     the per-shard breakdown is excluded, it legitimately differs;
//   - the full tenant listing, paged at several page sizes, page by page
//     and cursor by cursor;
//   - every tenant's Summary and Statement (full range plus subranges),
//     compared as marshalled bytes — byte-identical, not just approximately
//     equal.
func Diff(a, b View) error {
	return diff(a, b, true)
}

// DiffBills compares everything a tenant is ever billed — listings,
// summaries, statements, tenant-cap occupancy, tracked keys — but not the
// cumulative outcome counters (accrued/duplicates/dropped/evicted). It is
// the oracle for failover equivalence: a promoted standby that lost the
// primary's unreplicated WAL tail and had it replayed by an idempotent
// client has legitimately seen a different outcome *history* than a ledger
// that never failed (the replayed records count as duplicates where the
// originals accrued), but every bill must still be byte-identical.
func DiffBills(a, b View) error {
	return diff(a, b, false)
}

func diff(a, b View, strictCounters bool) error {
	sa, sb := a.Stats(), b.Stats()
	sa.Shards, sb.Shards = nil, nil
	if !strictCounters {
		sa.Accrued, sb.Accrued = 0, 0
		sa.Duplicates, sb.Duplicates = 0, 0
		sa.Dropped, sb.Dropped = 0, 0
		sa.KeysEvicted, sb.KeysEvicted = 0, 0
	}
	if err := jsonEqual("stats", sa, sb); err != nil {
		return err
	}

	var tenants []string
	for _, pageSize := range []int{1, 3, 7, 1000} {
		names, err := diffListing(a, b, pageSize)
		if err != nil {
			return err
		}
		tenants = names
	}

	for _, tenant := range tenants {
		if err := diffTenant(a, b, tenant); err != nil {
			return err
		}
	}
	return nil
}

// diffListing pages both ledgers in lockstep at one page size and returns
// the (shared) tenant order.
func diffListing(a, b View, pageSize int) ([]string, error) {
	var names []string
	curA, curB := "", ""
	for page := 0; ; page++ {
		sumsA, nextA := a.Tenants(curA, pageSize)
		sumsB, nextB := b.Tenants(curB, pageSize)
		where := fmt.Sprintf("listing page %d (size %d)", page, pageSize)
		if err := jsonEqual(where, sumsA, sumsB); err != nil {
			return nil, err
		}
		if nextA != nextB {
			return nil, fmt.Errorf("%s: cursor %q != %q", where, nextA, nextB)
		}
		for _, s := range sumsA {
			names = append(names, s.Tenant)
		}
		if nextA == "" {
			return names, nil
		}
		curA, curB = nextA, nextB
	}
}

// diffTenant compares one tenant's Summary and Statements.
func diffTenant(a, b View, tenant string) error {
	sumA, okA := a.Summary(tenant)
	sumB, okB := b.Summary(tenant)
	if okA != okB {
		return fmt.Errorf("summary %q: present=%v vs %v", tenant, okA, okB)
	}
	if err := jsonEqual("summary "+tenant, sumA, sumB); err != nil {
		return err
	}
	for _, r := range [][2]int{{0, -1}, {0, 10}, {7, 23}, {100, -1}} {
		stA, okA := a.Statement(tenant, r[0], r[1])
		stB, okB := b.Statement(tenant, r[0], r[1])
		where := fmt.Sprintf("statement %q [%d,%d]", tenant, r[0], r[1])
		if okA != okB {
			return fmt.Errorf("%s: present=%v vs %v", where, okA, okB)
		}
		if err := jsonEqual(where, stA, stB); err != nil {
			return err
		}
	}
	return nil
}

// jsonEqual compares two values by their marshalled bytes (maps marshal
// with sorted keys, so the comparison is deterministic) and reports both
// renderings on mismatch.
func jsonEqual(where string, a, b any) error {
	da, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("%s: marshal: %v", where, err)
	}
	db, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("%s: marshal: %v", where, err)
	}
	if !bytes.Equal(da, db) {
		return fmt.Errorf("%s differs:\n  a: %s\n  b: %s", where, da, db)
	}
	return nil
}
