package ledger

// keywindow.go is the idempotency window: what a key is, how long it is
// remembered and how it is saved are each written here, once. The store
// (accrueLocked, apply, replay, restoreFrom, streamSnapshot, Seen, Stats)
// goes through the calls below and never sees the set, the FIFO or the
// spelling of a key, so a different retention policy — ROADMAP item 3's
// epoch buckets — replaces this file and has keywindow_test.go to pass.
//
// A key belongs to its tenant: tenant B reusing (or guessing) tenant A's key
// must still bill. The tenant also pins a key to the tenant's shard, so a
// key check never crosses shards and each shard owns one window.
//
// Retention is by count, not by time: a window remembers its newest budget
// keys and forgets the oldest first, so how long a retry is still recognised
// depends on how fast the shard's tenants send keys (the hole item 3 closes).
// Every forgotten key is counted.

// windowKey names one (tenant, key) pair inside a keyWindow; nameKey is its
// only constructor, and "" means the entry carries no key. The spelling —
// tenant, a NUL, key — is the version-1 snapshot's key list, so it cannot
// change without a format break. It is unambiguous because validateEntry
// refuses a tenant holding a NUL: the first NUL always ends the tenant, and
// keys may hold more. One joined string, not a struct of two, on purpose: a
// struct-keyed set saved the join's allocation per keyed record but cost
// +27…+38 % peak RSS on the benchmark (ROADMAP item 3; CHANGES, PR 24).
type windowKey string

// nameKey scopes an idempotency key to its tenant. It allocates the joined
// string, so callers on a read path do it before taking the shard lock.
func nameKey(tenant, key string) windowKey {
	if key == "" {
		return ""
	}
	return windowKey(tenant + "\x00" + key)
}

// keyWindow is one shard's bounded memory of the keys it billed: a set for
// the probe and a FIFO for the eviction order. It has no lock of its own —
// it is a field of shard and every method runs under that shard's mu, which
// lockcheck proves at each sh.dedup touch.
type keyWindow struct {
	// budget is this shard's ceil(MaxKeys/Shards) slice of the key budget;
	// see Config.MaxKeys for the bounded overshoot this implies.
	budget    int
	set       map[windowKey]struct{}
	fifo      []windowKey // eviction order, oldest first
	evictions uint64      // keys forgotten since creation
}

func newKeyWindow(budget int) keyWindow {
	return keyWindow{budget: budget, set: make(map[windowKey]struct{})}
}

// seen reports whether k is remembered. An evicted key is not, exactly as
// record would take it again.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) seen(k windowKey) bool {
	if k == "" {
		return false
	}
	_, ok := w.set[k]
	return ok
}

// record remembers k, evicting the oldest keys beyond the budget; "" and a
// key already remembered change nothing (no re-queue, no eviction). One map
// probe: the insert is also the presence check. The live path records only
// keys seen has just reported absent, so there the set always grows; the
// check is what keeps replay of a damaged log from queueing a key twice.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) record(k windowKey) {
	if k == "" {
		return
	}
	before := len(w.set)
	w.set[k] = struct{}{}
	if len(w.set) == before {
		return
	}
	w.fifo = append(w.fifo, k)
	for len(w.fifo) > w.budget {
		delete(w.set, w.fifo[0])
		w.fifo = w.fifo[1:]
		w.evictions++
	}
}

// restore replaces the window with a snapshot's: its key list, oldest first,
// and its eviction count. The list is taken as written — a key a ledger older
// than the NUL rule saved under a NUL-holding tenant comes back as the same
// string — and copied, so the window owns its FIFO's backing array.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) restore(keys []windowKey, evicted uint64) {
	w.evictions = evicted
	w.fifo = append([]windowKey(nil), keys...)
	w.set = make(map[windowKey]struct{}, len(keys))
	for _, k := range keys {
		w.set[k] = struct{}{}
	}
}

// snapshotView returns the remembered keys, oldest first, as a view the
// caller may keep reading after it releases the shard lock — the snapshot
// writes it, the bulk of its document, beside live ingest. That is safe
// because elements below a returned view's len are never rewritten: record
// appends past len or reallocates, eviction reslices from the front, and
// restore swaps in a fresh array. Whoever changes the FIFO's representation
// owes this method a copy or the same guarantee (keywindow_test.go holds it
// to that under -race).
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) snapshotView() []windowKey { return w.fifo }

// len is the number of keys remembered now; evicted the number forgotten
// since creation (or carried by the last restore). They are Stats'
// KeysTracked and KeysEvicted, /healthz idempotencyKeys and keysEvicted.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) len() int { return len(w.set) }

//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) evicted() uint64 { return w.evictions }
