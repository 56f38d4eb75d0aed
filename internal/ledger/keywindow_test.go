package ledger

// The idempotency window's conformance suite, written against keyWindow's
// methods and never its fields: whatever replaces keywindow.go (ROADMAP item
// 3's epoch buckets) passes this file unchanged, except where a test states
// the retention horizon — the ones named FIFO — and those it restates.

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// assertSameWindow fails unless got remembers exactly what want does: the
// same keys in the same eviction order, each of them seen, and the same
// eviction count. It is how the ledger's state-equality helpers compare two
// shards' windows.
func assertSameWindow(t *testing.T, label string, got, want *keyWindow) {
	t.Helper()
	g, w := got.snapshotView(), want.snapshotView()
	if !slices.Equal(g, w) {
		t.Errorf("%s: key FIFO %q, want %q", label, g, w)
	}
	if got.len() != want.len() || got.len() != len(g) {
		t.Errorf("%s: %d keys remembered over a FIFO of %d, want %d", label, got.len(), len(g), want.len())
	}
	for _, k := range g {
		if !got.seen(k) {
			t.Errorf("%s: key %q is queued but not seen", label, k)
		}
	}
	if got.evicted() != want.evicted() {
		t.Errorf("%s: %d keys evicted, want %d", label, got.evicted(), want.evicted())
	}
}

// windowOf records keys, in order, into a fresh window of the given budget.
func windowOf(budget int, keys ...windowKey) *keyWindow {
	w := newKeyWindow(budget)
	for _, k := range keys {
		w.record(k)
	}
	return &w
}

func TestKeyWindowScopesKeysPerTenant(t *testing.T) {
	w := windowOf(8, nameKey("a", "k"))
	if !w.seen(nameKey("a", "k")) {
		t.Error("tenant a's key is not seen after it was recorded")
	}
	if w.seen(nameKey("b", "k")) {
		t.Error("tenant b's first use of tenant a's key is seen")
	}
	if w.seen(nameKey("a", "k2")) || w.seen(nameKey("ak", "")) || w.seen(nameKey("", "ak")) {
		t.Error("a pair that was never recorded is seen")
	}
	// Keys may hold NULs; tenants may not (validateEntry), so the first NUL
	// ends the tenant and these are three different pairs.
	w.record(nameKey("a", "x\x00y"))
	if w.seen(nameKey("a", "x")) || w.seen(nameKey("a", "x\x00")) || !w.seen(nameKey("a", "x\x00y")) {
		t.Error("a key holding a NUL is not kept apart from its prefixes")
	}
	if w.len() != 2 || w.evicted() != 0 {
		t.Errorf("len %d evicted %d, want 2 and 0", w.len(), w.evicted())
	}
}

func TestKeyWindowIgnoresUnkeyedEntries(t *testing.T) {
	w := windowOf(2, nameKey("a", ""), nameKey("b", ""))
	if nameKey("a", "") != "" || w.seen(nameKey("a", "")) {
		t.Error("an entry without a key has a name in the window")
	}
	if w.len() != 0 || len(w.snapshotView()) != 0 || w.evicted() != 0 {
		t.Errorf("unkeyed entries left len %d, view %q, evicted %d", w.len(), w.snapshotView(), w.evicted())
	}
}

// TestKeyWindowFIFOEviction states the horizon: the newest budget keys are
// remembered, the oldest is forgotten first, and every forgotten key counts.
func TestKeyWindowFIFOEviction(t *testing.T) {
	const budget = 3
	key := func(i int) windowKey { return nameKey("acme", fmt.Sprint("k", i)) }
	w := windowOf(budget)
	for i := 0; i < 10; i++ {
		w.record(key(i))
		oldest := max(0, i+1-budget)
		if w.len() != i+1-oldest || w.evicted() != uint64(oldest) {
			t.Fatalf("after %d keys: len %d evicted %d, want %d and %d", i+1, w.len(), w.evicted(), i+1-oldest, oldest)
		}
		var want []windowKey
		for j := 0; j <= i; j++ {
			if w.seen(key(j)) != (j >= oldest) {
				t.Fatalf("after %d keys: seen(k%d) = %v", i+1, j, w.seen(key(j)))
			}
			if j >= oldest {
				want = append(want, key(j))
			}
		}
		if got := w.snapshotView(); !slices.Equal(got, want) {
			t.Fatalf("after %d keys: view %q, want %q", i+1, got, want)
		}
	}
	// An evicted key is taken again like a new one.
	w.record(key(0))
	if !w.seen(key(0)) || w.seen(key(7)) || w.evicted() != 8 {
		t.Errorf("re-recording an evicted key: seen %v, oldest still seen %v, evicted %d", w.seen(key(0)), w.seen(key(7)), w.evicted())
	}
}

// TestKeyWindowFIFORerecordIsANoOp: recording a remembered key neither queues
// it a second time nor evicts anything — replay of a damaged log relies on it
// — and under FIFO it does not refresh the key's place in the queue either.
func TestKeyWindowFIFORerecordIsANoOp(t *testing.T) {
	a, b, c, d := nameKey("t", "a"), nameKey("t", "b"), nameKey("t", "c"), nameKey("t", "d")
	w := windowOf(3, a, b, c)
	for _, k := range []windowKey{a, c, a, b} {
		w.record(k)
		assertSameWindow(t, fmt.Sprintf("after re-recording %q", k), w, windowOf(3, a, b, c))
	}
	w.record(d)
	want := windowOf(3, a, b, c, d)
	assertSameWindow(t, "after a new key", w, want)
	if w.seen(a) || w.evicted() != 1 {
		t.Errorf("the re-recorded oldest key outlived a new one: seen %v, evicted %d", w.seen(a), w.evicted())
	}
}

// TestKeyWindowRestore: a window restored from a snapshot's key list is the
// window that wrote it — same keys, same order, same count carried — and it
// goes on evicting from the list's front. The list is the JSON the parent
// commit's snapshots hold; its second entry is one a ledger older than the
// NUL rule could have saved under tenant "a\x00b", which must restore to the
// joined string it was written from (the ambiguity and all), not be re-split.
func TestKeyWindowRestore(t *testing.T) {
	var list []windowKey
	if err := json.Unmarshal([]byte(`["acme\u0000k1","a\u0000b\u0000k","ünï\u0000k-\u2028","acme\u0000k2"]`), &list); err != nil {
		t.Fatal(err)
	}
	legacy := windowKey("a\x00b\x00k")
	if list[0] != nameKey("acme", "k1") || list[1] != legacy || list[1] != nameKey("a\x00b", "k") || list[1] != nameKey("a", "b\x00k") {
		t.Fatalf("decoded key list %q", list)
	}
	w := windowOf(4, nameKey("old", "gone"))
	w.restore(list, 7)
	written := slices.Clone(list)
	list[0], list[1] = "scribbled", "over" // the window owns its copy
	if got := w.snapshotView(); !slices.Equal(got, written) {
		t.Fatalf("restored view %q, want %q", got, written)
	}
	if w.len() != 4 || w.evicted() != 7 || w.seen(nameKey("old", "gone")) {
		t.Fatalf("restored len %d evicted %d, previous key seen %v", w.len(), w.evicted(), w.seen(nameKey("old", "gone")))
	}
	for _, k := range written {
		if !w.seen(k) {
			t.Errorf("restored key %q is not seen", k)
		}
	}
	// What restore wrote back out is what it read.
	out, err := json.Marshal(w.snapshotView())
	if err != nil {
		t.Fatal(err)
	}
	var again []windowKey
	if err := json.Unmarshal(out, &again); err != nil || !slices.Equal(again, written) {
		t.Fatalf("round trip %s decodes to %q (%v), want %q", out, again, err, written)
	}
	w.record(legacy) // remembered: no re-queue
	w.record(nameKey("acme", "k3"))
	w.record(nameKey("acme", "k4"))
	want := []windowKey{nameKey("ünï", "k-\u2028"), nameKey("acme", "k2"), nameKey("acme", "k3"), nameKey("acme", "k4")}
	if got := w.snapshotView(); !slices.Equal(got, want) || w.evicted() != 9 || w.seen(legacy) {
		t.Fatalf("after two new keys: view %q evicted %d legacy seen %v, want %q and 9", got, w.evicted(), w.seen(legacy), want)
	}
	w.restore(nil, 0)
	if w.len() != 0 || w.evicted() != 0 || len(w.snapshotView()) != 0 || w.seen(want[3]) {
		t.Fatalf("restore of an empty list left len %d evicted %d", w.len(), w.evicted())
	}
	w.record(want[3])
	if !w.seen(want[3]) {
		t.Fatal("a window restored empty does not record")
	}
}

// TestKeyWindowSnapshotViewOutlivesTheLock holds snapshotView to its
// contract, under -race: a view taken under the lock stays readable, and
// keeps reading what it held, after the lock is released and while record
// appends, evicts, reallocates and restore swaps the window out — which is
// what streamSnapshot does beside live ingest.
func TestKeyWindowSnapshotViewOutlivesTheLock(t *testing.T) {
	const budget = 64
	key := func(i int) windowKey { return nameKey("acme", fmt.Sprint("k", i)) }
	var mu sync.Mutex // the shard lock
	w := windowOf(budget)
	next := 0
	for ; next < budget/2; next++ {
		w.record(key(next))
	}
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		mu.Lock()
		view := w.snapshotView()
		first := next - len(view)
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 50; pass++ {
				for i, k := range view {
					if k != key(first+i) {
						t.Errorf("view element %d reads %q, held %q when taken", i, k, key(first+i))
						return
					}
				}
			}
		}()
		// Grow past the view's capacity (reallocation), then far past the
		// budget (eviction from the front of the array the view may share).
		for i := 0; i < 3*budget; i++ {
			mu.Lock()
			w.record(key(next))
			next++
			mu.Unlock()
		}
		if round == 5 {
			mu.Lock()
			w.restore(w.snapshotView(), w.evicted())
			mu.Unlock()
		}
	}
	wg.Wait()
	if w.len() != budget || w.evicted() != uint64(next-budget) {
		t.Fatalf("len %d evicted %d after %d keys, want %d and %d", w.len(), w.evicted(), next, budget, next-budget)
	}
}
