package ledger

import (
	"sort"
	"sync"
)

// shard is one lock stripe of the ledger. It owns every tenant whose name
// hashes to it: their accounts and the idempotency window remembering their
// keys (keywindow.go). Nothing in a shard is ever touched by another shard,
// so shards never contend — the only cross-shard state is the ledger's
// atomic counters.
type shard struct {
	mu       sync.Mutex
	accounts map[string]*account
	names    []string // account names, kept sorted for O(log n) pagination
	dedup    keyWindow

	// Outcome counters live per shard (under mu, which accruals already
	// hold) so snapshots can capture each stripe's counters consistently
	// with its accounts at one WAL offset; Stats sums them.
	accrued    uint64
	duplicates uint64
	dropped    uint64

	// probed folds in every word a probe pass touched, so the compiler
	// cannot drop the loads; nothing reads it.
	probed uint64

	// wal is the shard's append-only log; nil on a volatile ledger. Set
	// once before the ledger is published and immutable after, so readers
	// need no lock; the walFile synchronises itself internally.
	//
	//litmus:unguarded immutable after construction/recovery
	wal *walFile
}

func newShard(maxKeys int) *shard {
	return &shard{
		accounts: make(map[string]*account),
		dedup:    newKeyWindow(maxKeys),
	}
}

// apply mutates the shard for one decided (entry, outcome) pair: counters
// for Duplicate/Dropped, the full account/key/window update for Accrued. It
// is the single state-transition function shared by the live accrual step
// (accrueLocked) and the replay step (Ledger.replay), so a recovered or
// replicated shard is bit-identical to the shard that logged the records.
// at is the window's lookup of key that decided the outcome, so the key is
// recorded without a second walk of its chain; replay, which decides
// nothing, passes the zero probe. Callers hold mu.
//
//litmus:guarded-by caller holds mu
func (sh *shard) apply(e Entry, key windowKey, at probe, outcome Outcome, windowMinutes int) {
	switch outcome {
	case Duplicate:
		sh.duplicates++
		return
	case Dropped:
		sh.dropped++
		return
	}
	acct := sh.accounts[e.Tenant]
	if acct == nil {
		acct = &account{Windows: make(map[int]*window)}
		sh.accounts[e.Tenant] = acct
		sh.insertName(e.Tenant)
	}
	// Record the key only for entries that actually bill, so a retry after
	// a drop is not mistaken for a duplicate.
	sh.dedup.record(key, at)
	widx := e.Minute / windowMinutes
	w := acct.Windows[widx]
	if w == nil {
		w = &window{Bills: make(map[string]float64)}
		acct.Windows[widx] = w
	}
	acct.Invocations++
	acct.Commercial += e.Commercial
	acct.Billed += e.Price
	w.Invocations++
	w.Commercial += e.Commercial
	w.Billed += e.Price
	w.Bills[e.Pricer] += e.Price
	sh.accrued++
}

// insertName keeps the shard's name index sorted on insert; callers hold mu.
//
//litmus:guarded-by caller holds mu
func (sh *shard) insertName(tenant string) {
	i := sort.SearchStrings(sh.names, tenant)
	sh.names = append(sh.names, "")
	copy(sh.names[i+1:], sh.names[i:])
	sh.names[i] = tenant
}

// pageAfter snapshots up to limit summaries strictly after cursor, in name
// order, under the shard lock. The second result reports whether the shard
// holds further names beyond the returned slice — a page merged from these
// snapshots needs at most limit candidates from each shard, so the copy is
// bounded by the page size, not the shard size.
func (sh *shard) pageAfter(cursor string, limit int) ([]Summary, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	start := sort.SearchStrings(sh.names, cursor)
	if start < len(sh.names) && sh.names[start] == cursor {
		start++
	}
	end := min(start+limit, len(sh.names))
	if start >= end {
		return nil, false
	}
	sums := make([]Summary, 0, end-start)
	for _, name := range sh.names[start:end] {
		sums = append(sums, summarize(name, sh.accounts[name]))
	}
	return sums, end < len(sh.names)
}

// summary reads one tenant's aggregate under the shard lock.
func (sh *shard) summary(tenant string) (Summary, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a, ok := sh.accounts[tenant]
	if !ok {
		return Summary{}, false
	}
	return summarize(tenant, a), true
}

// statement builds one tenant's windowed bill under the shard lock.
func (sh *shard) statement(tenant string, fromMinute, toMinute, windowMinutes int) (Statement, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a, ok := sh.accounts[tenant]
	if !ok {
		return Statement{}, false
	}
	st := Statement{
		Tenant:        tenant,
		WindowMinutes: windowMinutes,
		FromMinute:    fromMinute,
		ToMinute:      toMinute,
	}
	widxs := make([]int, 0, len(a.Windows))
	for widx := range a.Windows {
		start := widx * windowMinutes
		end := start + windowMinutes - 1
		if end < fromMinute || (toMinute >= 0 && start > toMinute) {
			continue
		}
		widxs = append(widxs, widx)
	}
	sort.Ints(widxs)
	st.Lines = make([]Line, 0, len(widxs))
	for _, widx := range widxs {
		w := a.Windows[widx]
		bills := make(map[string]float64, len(w.Bills))
		for pricer, v := range w.Bills {
			bills[pricer] = v
		}
		st.Lines = append(st.Lines, Line{
			Window:      widx,
			StartMinute: widx * windowMinutes,
			Invocations: w.Invocations,
			Commercial:  w.Commercial,
			Billed:      w.Billed,
			Bills:       bills,
		})
		st.Invocations += w.Invocations
		st.Commercial += w.Commercial
		st.Billed += w.Billed
	}
	if st.Commercial > 0 {
		st.Discount = 1 - st.Billed/st.Commercial
	}
	return st, true
}
