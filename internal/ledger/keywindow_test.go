package ledger

// The idempotency window's conformance suite, written against keyWindow's
// methods and never its fields: whatever replaces keywindow.go (ROADMAP item
// 10's time horizon) passes this file unchanged, except where a test states
// the retention horizon — the ones named FIFO — and those it restates. Below
// the suite, FuzzKeyWindow holds the window to refWindow, the set-and-FIFO
// window it replaced; its colliding-hash mode, and the tests after it that
// read the index, aim at this representation, and go with it.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// spelling is k as a snapshot's key list writes it.
func spelling(k windowKey) string {
	if k.key == "" {
		return k.tenant
	}
	return k.tenant + "\x00" + k.key
}

// viewKeys copies a view out as the key list a snapshot document holds.
func viewKeys(v keyView) []string {
	var keys []string
	for k := range v.all() {
		keys = append(keys, string(k))
	}
	return keys
}

// assertSameWindow fails unless got remembers exactly what want does: the
// same keys in the same eviction order, each of them seen, and the same
// eviction count. It is how the ledger's state-equality helpers compare two
// shards' windows.
func assertSameWindow(t *testing.T, label string, got, want *keyWindow) {
	t.Helper()
	g, w := viewKeys(got.snapshotView()), viewKeys(want.snapshotView())
	if !slices.Equal(g, w) {
		t.Errorf("%s: key FIFO %q, want %q", label, g, w)
	}
	if got.len() != want.len() || got.len() != len(g) {
		t.Errorf("%s: %d keys remembered over a FIFO of %d, want %d", label, got.len(), len(g), want.len())
	}
	for _, k := range g {
		if !got.seen(listedKey(k)) {
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
	if nameKey("a", "") != (windowKey{}) || w.seen(nameKey("a", "")) {
		t.Error("an entry without a key has a name in the window")
	}
	if w.len() != 0 || w.snapshotView().len() != 0 || w.evicted() != 0 {
		t.Errorf("unkeyed entries left len %d, view %q, evicted %d", w.len(), viewKeys(w.snapshotView()), w.evicted())
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
		var want []string
		for j := 0; j <= i; j++ {
			if w.seen(key(j)) != (j >= oldest) {
				t.Fatalf("after %d keys: seen(k%d) = %v", i+1, j, w.seen(key(j)))
			}
			if j >= oldest {
				want = append(want, spelling(key(j)))
			}
		}
		if got := viewKeys(w.snapshotView()); !slices.Equal(got, want) {
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
		assertSameWindow(t, fmt.Sprintf("after re-recording %q", spelling(k)), w, windowOf(3, a, b, c))
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
	var list []string
	if err := json.Unmarshal([]byte(`["acme\u0000k1","a\u0000b\u0000k","ünï\u0000k-\u2028","acme\u0000k2"]`), &list); err != nil {
		t.Fatal(err)
	}
	legacy := nameKey("a\x00b", "k")
	if list[0] != spelling(nameKey("acme", "k1")) || list[1] != spelling(legacy) || list[1] != "a\x00b\x00k" || list[1] != spelling(nameKey("a", "b\x00k")) {
		t.Fatalf("decoded key list %q", list)
	}
	w := windowOf(4, nameKey("old", "gone"))
	w.restore(list, 7)
	written := slices.Clone(list)
	list[0], list[1] = "scribbled", "over" // the window owns its copy
	if got := viewKeys(w.snapshotView()); !slices.Equal(got, written) {
		t.Fatalf("restored view %q, want %q", got, written)
	}
	if w.len() != 4 || w.evicted() != 7 || w.seen(nameKey("old", "gone")) {
		t.Fatalf("restored len %d evicted %d, previous key seen %v", w.len(), w.evicted(), w.seen(nameKey("old", "gone")))
	}
	for _, k := range written {
		if !w.seen(listedKey(k)) {
			t.Errorf("restored key %q is not seen", k)
		}
	}
	// What restore wrote back out is what it read.
	out, err := json.Marshal(viewKeys(w.snapshotView()))
	if err != nil {
		t.Fatal(err)
	}
	var again []string
	if err := json.Unmarshal(out, &again); err != nil || !slices.Equal(again, written) {
		t.Fatalf("round trip %s decodes to %q (%v), want %q", out, again, err, written)
	}
	w.record(legacy) // remembered: no re-queue
	w.record(nameKey("acme", "k3"))
	w.record(nameKey("acme", "k4"))
	want := []windowKey{nameKey("ünï", "k-\u2028"), nameKey("acme", "k2"), nameKey("acme", "k3"), nameKey("acme", "k4")}
	wantList := []string{spelling(want[0]), spelling(want[1]), spelling(want[2]), spelling(want[3])}
	if got := viewKeys(w.snapshotView()); !slices.Equal(got, wantList) || w.evicted() != 9 || w.seen(legacy) {
		t.Fatalf("after two new keys: view %q evicted %d legacy seen %v, want %q and 9", got, w.evicted(), w.seen(legacy), wantList)
	}
	w.restore(nil, 0)
	if w.len() != 0 || w.evicted() != 0 || w.snapshotView().len() != 0 || w.seen(want[3]) {
		t.Fatalf("restore of an empty list left len %d evicted %d", w.len(), w.evicted())
	}
	w.record(want[3])
	if !w.seen(want[3]) {
		t.Fatal("a window restored empty does not record")
	}
}

// TestKeyWindowRestoreCollapsesDuplicates pins what restore does with a list
// naming one key twice, which no window writes (record dedups): the later
// entry collapses into the first, exactly as recording the list would, so
// the window stays one key per FIFO entry and goes on evicting in order.
func TestKeyWindowRestoreCollapsesDuplicates(t *testing.T) {
	a, b, c := spelling(nameKey("t", "a")), spelling(nameKey("t", "b")), spelling(nameKey("t", "c"))
	w := windowOf(3)
	w.restore([]string{a, b, a, c, b}, 5)
	want := windowOf(3, nameKey("t", "a"), nameKey("t", "b"), nameKey("t", "c"))
	if got := viewKeys(w.snapshotView()); !slices.Equal(got, []string{a, b, c}) || w.len() != 3 || w.evicted() != 5 {
		t.Fatalf("restored %q, len %d, evicted %d; want [a b c], 3 and 5", got, w.len(), w.evicted())
	}
	w.record(nameKey("t", "d"))
	want.record(nameKey("t", "d"))
	if w.seen(nameKey("t", "a")) || !w.seen(nameKey("t", "b")) || w.evicted() != 6 {
		t.Fatalf("after a new key: a seen %v, b seen %v, evicted %d", w.seen(nameKey("t", "a")), w.seen(nameKey("t", "b")), w.evicted())
	}
	if got := viewKeys(w.snapshotView()); !slices.Equal(got, viewKeys(want.snapshotView())) {
		t.Fatalf("view %q, want %q", got, viewKeys(want.snapshotView()))
	}
}

// TestKeyWindowRestoreBudgetSized restores a production-sized list into an
// empty window — the shape of every recovery — and holds the result to the
// window that recorded the same keys.
func TestKeyWindowRestoreBudgetSized(t *testing.T) {
	const budget = 5000
	recorded := windowOf(budget)
	for i := 0; i < 3*budget/2; i++ {
		recorded.record(nameKey(fmt.Sprint("tenant-", i%97), fmt.Sprint("run-7#", i)))
	}
	list := viewKeys(recorded.snapshotView())
	if len(list) != budget {
		t.Fatalf("recorded window holds %d keys, want %d", len(list), budget)
	}
	w := windowOf(budget)
	w.restore(list, recorded.evicted())
	assertSameWindow(t, "restored", w, recorded)
	for i := 0; i < 3*budget/2; i++ {
		if got := w.seen(nameKey(fmt.Sprint("tenant-", i%97), fmt.Sprint("run-7#", i))); got != (i >= budget/2) {
			t.Fatalf("key %d: seen %v", i, got)
		}
	}
	k := nameKey("late", "comer")
	w.record(k)
	recorded.record(k)
	assertSameWindow(t, "restored, then one more key", w, recorded)
}

// TestKeyWindowSequenceWrap runs a window whose count of forgotten keys —
// carried in by restore, as from a snapshot — sits just below 2³², so the
// keys it records, finds and forgets straddle that boundary.
func TestKeyWindowSequenceWrap(t *testing.T) {
	const budget, start = 16, 1<<32 - 8
	key := func(i int) windowKey { return nameKey(fmt.Sprint("t", i%3), fmt.Sprint("k", i)) }
	w := windowOf(budget)
	w.restore(nil, start)
	for i := 0; i < 4*budget; i++ {
		w.record(key(i))
		oldest := max(0, i+1-budget)
		if w.len() != i+1-oldest || w.evicted() != start+uint64(oldest) {
			t.Fatalf("after %d keys: len %d evicted %d, want %d and %d", i+1, w.len(), w.evicted(), i+1-oldest, start+uint64(oldest))
		}
		var want []string
		for j := 0; j <= i; j++ {
			if w.seen(key(j)) != (j >= oldest) {
				t.Fatalf("after %d keys: seen(k%d) = %v", i+1, j, w.seen(key(j)))
			}
			if j >= oldest {
				want = append(want, spelling(key(j)))
			}
		}
		if got := viewKeys(w.snapshotView()); !slices.Equal(got, want) {
			t.Fatalf("after %d keys: view %q, want %q", i+1, got, want)
		}
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
		first := next - view.len()
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 50; pass++ {
				i := 0
				for k := range view.all() {
					if string(k) != spelling(key(first+i)) {
						t.Errorf("view element %d reads %q, held %q when taken", i, k, spelling(key(first+i)))
						return
					}
					i++
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
			w.restore(viewKeys(w.snapshotView()), w.evicted())
			mu.Unlock()
		}
	}
	wg.Wait()
	if w.len() != budget || w.evicted() != uint64(next-budget) {
		t.Fatalf("len %d evicted %d after %d keys, want %d and %d", w.len(), w.evicted(), next, budget, next-budget)
	}
}

// TestKeyWindowViewAcrossBlocks is the same contract at a budget larger than
// any block a window keeps its keys in: the view spans several of them, and
// every one is forgotten — and let go of by the window — while a reader is
// still walking it.
func TestKeyWindowViewAcrossBlocks(t *testing.T) {
	const budget = 10000
	key := func(i int) windowKey { return nameKey(fmt.Sprint("tenant-", i%5), fmt.Sprint("k", i)) }
	var mu sync.Mutex // the shard lock
	w := windowOf(budget)
	next := 0
	for ; next < budget+budget/3; next++ {
		w.record(key(next))
	}
	mu.Lock()
	view := w.snapshotView()
	first := next - view.len()
	mu.Unlock()
	if view.len() != budget {
		t.Fatalf("view holds %d keys, want %d", view.len(), budget)
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 4; pass++ {
				i := 0
				for k := range view.all() {
					if string(k) != spelling(key(first+i)) {
						t.Errorf("view element %d reads %q, held %q when taken", i, k, spelling(key(first+i)))
						return
					}
					i++
				}
				if i != budget {
					t.Errorf("view walked %d keys, held %d", i, budget)
				}
			}
		}()
	}
	for i := 0; i < 2*budget; i++ {
		mu.Lock()
		w.record(key(next))
		next++
		mu.Unlock()
	}
	mu.Lock()
	w.restore(nil, 0)
	mu.Unlock()
	wg.Wait()
}

// refWindow is the window keywindow.go replaced: a set of joined strings
// for the probe and a FIFO of them for the eviction order. It is the oracle
// FuzzKeyWindow holds keyWindow to.
type refWindow struct {
	budget    int
	set       map[string]struct{}
	fifo      []string
	evictions uint64
}

func newRefWindow(budget int) *refWindow {
	return &refWindow{budget: budget, set: make(map[string]struct{})}
}

func (w *refWindow) seen(k string) bool {
	if k == "" {
		return false
	}
	_, ok := w.set[k]
	return ok
}

func (w *refWindow) record(k string) {
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

func (w *refWindow) restore(keys []string, evicted uint64) {
	w.evictions = evicted
	w.fifo = append([]string(nil), keys...)
	w.set = make(map[string]struct{}, len(keys))
	for _, k := range keys {
		w.set[k] = struct{}{}
	}
}

// Fuzz inputs name keys from a tiny alphabet, so keys repeat, collide on
// their spelling and get evicted: the legacy pair ("a\x00b", "k") and
// ("a", "b\x00k") spell one key, NULs sit inside keys, and the long keys put
// a spelling on both sides of maphash's 128-byte chunk. For front coding,
// keys extend and truncate one another ("k", "k1", "k12"), a NUL sits where
// one key's shared prefix ends ("k", "k\x00", "k\x001"), a key shares a
// prefix of 128 bytes or more with the one before it, so a length takes two
// uvarint bytes, and a byte from 128 up names one of 128 derived keys: the
// stream prefix fuzzDerived, then a line number, enough to fill blocks of
// 16 keys and more, across their restart points.
var (
	fuzzTenants = []string{"a", "a\x00b", "b", "ünï"}
	fuzzKeys    = []string{
		"", "k", "b\x00k", "x\x00y", "\x00", "k2", strings.Repeat("r", 126), strings.Repeat("s", 140),
		"k1", "k12", "k\x00", "k\x001", fuzzDerived + "1", fuzzDerived + "12", strings.Repeat("s", 140) + "#1", strings.Repeat("r", 126) + "\x00",
	}
	fuzzDerived = "tenant-0042/stream-0123456789abcdef#"
)

// fuzzKey is the (tenant, key) pair a program byte names.
func fuzzKey(b byte) (tenant, key string) {
	tenant = fuzzTenants[int(b)%len(fuzzTenants)]
	if b >= 128 {
		return tenant, fuzzDerived + strconv.Itoa(int(b)-128)
	}
	return tenant, fuzzKeys[int(b)/len(fuzzTenants)%len(fuzzKeys)]
}

// fuzzProgram is a FuzzKeyWindow program at the given budget and mode that
// records every derived key in order, holds a view open from the fifth key
// on and another from the sixtieth, probes keys behind and ahead of the
// window as it goes, and restores once from the window's own view: with a
// budget of 40, 128 keys fill two blocks of 64, cross three restart points
// in each and forget the first block while both views are open.
func fuzzProgram(budget, mode byte) []byte {
	prog := []byte{budget - 1, mode}
	for i := 0; i < 128; i++ {
		prog = append(prog, 0, byte(128+i))
		switch i {
		case 5, 60:
			prog = append(prog, 5, 0)
		case 90:
			prog = append(prog, 3, 0)
		}
		if i%7 == 0 {
			prog = append(prog, 2, byte(128+i/2), 2, byte(128+min(i+3, 127)))
		}
	}
	return prog
}

// collidingTags are the top 32 bits of three hand-picked hashes. The first
// and the third have low 32 bits all ones (collidingHash), which makes the
// last slot of every index their home: keys carrying them share one probe
// chain, which wraps the table at once. They differ only in bit 12, which a
// slot of seven or more sequence bits does not keep (a slot keeps a tag's
// bits from its sequence bits and displacement up, the lowest forced set),
// so at a budget from twinBudget on their slots' partial tags are equal
// too. The second differs from both in its top bit, which a slot keeps at
// every budget short of maxBudget, and has low bits all zero (firstHome):
// its home is the first slot, where the others' chain wraps to, so each
// key of theirs a window takes moves the second's keys behind it a slot on.
var collidingTags = [3]uint32{0x9e3779b9, 0x9e3779b9 ^ 1<<31, 0x9e3779b9 ^ 1<<12}

// collidingHash is the hash of a key carrying tag whose home is the last
// slot; firstHome the hash of one whose home is the first.
func collidingHash(tag uint32) uint64 { return uint64(tag)<<32 | 1<<32 - 1 }
func firstHome(tag uint32) uint64     { return uint64(tag) << 32 }

// twinBudget is the smallest budget whose slots keep seven or more
// sequence bits, where collidingTags[0] and [2] are partial twins.
const twinBudget = 32

// collidingKey is nameKey with a hand-picked hash that is still a function
// of the spelling: one class per spelling, by its length — two share the
// whole hash, one homes where their chain wraps to, one shares the home and
// (from twinBudget on) the slot's partial tag with the first two but not
// the hash, and one hashes normally. A window never derives a home again
// after it takes a key, so the hand-picked hashes hold through every sweep.
func collidingKey(tenant, key string) windowKey {
	k := nameKey(tenant, key)
	if k.hash == 0 {
		return k
	}
	switch len(spelling(k)) % 5 {
	case 0, 1:
		k.hash = collidingHash(collidingTags[0])
	case 2:
		k.hash = firstHome(collidingTags[1])
	case 3:
		k.hash = collidingHash(collidingTags[2])
	}
	return k
}

// twinProgram is a colliding FuzzKeyWindow program at budget 40 that records
// keys tagged collidingTags[0] and keys tagged its partial twin by turns,
// probing each class right after the other is recorded, until both have
// filled blocks and been swept: every probe of one class walks past slots
// of the other whose partial tag and displacement match and whose spelling
// does not.
func twinProgram() []byte {
	var first, twin []byte
	for b := range 256 {
		k := collidingKey(fuzzKey(byte(b)))
		switch {
		case k.hash == 0:
		case k.hash == collidingHash(collidingTags[0]):
			first = append(first, byte(b))
		case k.hash == collidingHash(collidingTags[2]):
			twin = append(twin, byte(b))
		}
	}
	prog := []byte{40 - 1, 1}
	for i := range min(len(first), len(twin), 24) {
		prog = append(prog, 0, first[i], 2, twin[i], 0, twin[i], 2, first[i])
	}
	return prog
}

// FuzzKeyWindow drives keyWindow and refWindow with one random program —
// record, seen, restore from either window's view, views held across later
// writes, len and evicted — and requires them to agree at every step. The
// first byte picks the budget, 1 to 64; the second picks the hash (maphash, or the
// colliding hand-picked ones: shared hashes, partial tags that match over
// spellings that do not, chains that wrap the table and outgrow a slot's
// displacement field, backward shift across the wrap), whether the count
// of forgotten keys starts just below 2³², which wraps a slot's few
// sequence bits many times over, and whether the window keeps its keys in
// blocks a quarter of their size (smallBlocks), so that a sweep forgets
// several blocks, as a window over 64 Ki keys does, and the oldest
// remembered key can sit blocks past base.
func FuzzKeyWindow(f *testing.F) {
	f.Add([]byte{3, 0, 0, 5, 0, 9, 1, 5, 0, 13, 0, 17, 2, 0, 5, 0, 3, 0, 4, 0, 0, 21})
	f.Add([]byte{5, 1, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 1, 2, 0, 29, 0, 30, 0, 31, 3, 0, 0, 8, 0, 9})
	f.Add([]byte{2, 3, 0, 6, 0, 26, 0, 30, 1, 6, 5, 0, 0, 7, 0, 11, 4, 0, 0, 15, 0, 19, 1, 26})
	f.Add([]byte{12, 2, 0, 9, 0, 5, 0, 13, 0, 17, 0, 21, 0, 25, 0, 29, 0, 6, 0, 10, 0, 14, 0, 18, 5, 0, 0, 22, 0, 26, 0, 30, 1, 9, 3, 0})
	f.Add([]byte{9, 0, 0, 4, 0, 32, 0, 36, 5, 0, 0, 40, 0, 44, 0, 60, 0, 48, 0, 52, 0, 56, 2, 32, 2, 36, 2, 40, 0, 28, 0, 24})
	f.Add(fuzzProgram(40, 0))
	f.Add(fuzzProgram(40, 1))
	f.Add(fuzzProgram(16, 2))
	f.Add(fuzzProgram(64, 3))
	f.Add(twinProgram())
	f.Add(farProgram)
	f.Add(fuzzProgram(40, 4))
	f.Add(fuzzProgram(64, 5))
	f.Add(fuzzProgram(16, 6))
	f.Fuzz(func(t *testing.T, prog []byte) { runKeyWindowProgram(t, prog) })
}

// smallBlocks makes an empty window keep its keys in blocks a quarter of
// the size its budget gives (or as small as they go), so that a sweep,
// which still forgets 1<<sweepShift keys, drops several blocks.
func smallBlocks(w *keyWindow) {
	w.blockShift -= min(w.blockShift, 2)
}

// farProgram is the FuzzKeyWindow seed whose colliding chains outgrow a
// slot's displacement field, so far holds slots (TestKeyWindowFarDisplacements
// checks that it does).
var farProgram = fuzzProgram(64, 1)

// runKeyWindowProgram runs one FuzzKeyWindow program and returns the most
// slots the window's far map held after any step.
func runKeyWindowProgram(t *testing.T, prog []byte) (mostFar int) {
	t.Helper()
	if len(prog) < 2 {
		return 0
	}
	budget := 1 + int(prog[0]%64)
	collide := prog[1]&1 != 0
	var start uint64
	if prog[1]&2 != 0 {
		start = 1<<32 - 8
	}
	name := nameKey
	if collide {
		name = collidingKey
	}
	key := func(b byte) windowKey { return name(fuzzKey(b)) }
	w, ref := newKeyWindow(budget), newRefWindow(budget)
	if prog[1]&4 != 0 {
		smallBlocks(&w)
	}
	w.restore(nil, start)
	ref.restore(nil, start)
	// restore names a list's entries by maphash; under colliding hashes
	// the equivalent is restoring nothing and recording the list, which
	// a list no longer than the budget and without duplicates allows.
	restore := func(list []string, evicted uint64) {
		ref.restore(list, evicted)
		if !collide {
			w.restore(list, evicted)
			return
		}
		w.restore(nil, evicted)
		for _, s := range list {
			tenant, k, _ := strings.Cut(s, "\x00")
			w.record(name(tenant, k))
		}
	}
	type held struct {
		view keyView
		keys []string
	}
	var views []held
	for pc := 2; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc], prog[pc+1]
		switch op % 6 {
		case 0, 1:
			k := key(arg)
			w.record(k)
			ref.record(spelling(k))
		case 2:
			k := key(arg)
			if got, want := w.seen(k), ref.seen(spelling(k)); got != want {
				t.Fatalf("step %d: seen(%q) = %v, the reference says %v", pc, spelling(k), got, want)
			}
		case 3:
			restore(viewKeys(w.snapshotView()), w.evicted())
		case 4:
			restore(slices.Clone(ref.fifo), ref.evictions)
		case 5:
			v := w.snapshotView()
			views = append(views, held{v, viewKeys(v)})
		}
		if got := viewKeys(w.snapshotView()); !slices.Equal(got, ref.fifo) {
			t.Fatalf("step %d: view %q, the reference's FIFO %q", pc, got, ref.fifo)
		}
		if w.len() != len(ref.set) || w.evicted() != ref.evictions {
			t.Fatalf("step %d: len %d evicted %d, the reference's %d and %d", pc, w.len(), w.evicted(), len(ref.set), ref.evictions)
		}
		mostFar = max(mostFar, len(w.far))
	}
	for _, s := range ref.fifo {
		tenant, k, _ := strings.Cut(s, "\x00")
		if !w.seen(name(tenant, k)) {
			t.Fatalf("remembered key %q is not seen", s)
		}
	}
	for i, h := range views {
		if got := viewKeys(h.view); !slices.Equal(got, h.keys) {
			t.Fatalf("view %d reads %q, held %q when taken", i, got, h.keys)
		}
	}
	return mostFar
}

// assertIndexHolds fails unless the index holds one slot for every key from
// base on — the remembered ones and the forgotten ones still lingering until
// the next sweep — and nothing else.
func assertIndexHolds(t *testing.T, label string, w *keyWindow) {
	t.Helper()
	n := 0
	for _, s := range w.slots {
		if s != 0 {
			n++
		}
	}
	if uint64(n) != w.tail-w.base {
		t.Fatalf("%s: index holds %d slots, want tail−base = %d", label, n, w.tail-w.base)
	}
}

// TestKeyWindowProductionBlocks runs a window at a budget whose blocks are
// the 4096 keys a serving shard's are, so forgotten slots linger for up to
// a block's worth of forgets (FuzzKeyWindow's budgets keep it at 64 or below),
// against refWindow: five budgets of fresh keys, re-records of keys just
// forgotten and of keys still remembered, seen on both sides of head just
// before and just after every sweep, and a restore from snapshotView with
// a block half forgotten.
func TestKeyWindowProductionBlocks(t *testing.T) {
	const budget, fresh = 5000, 5 * 5000
	w, ref := windowOf(budget), newRefWindow(budget)
	if w.blockShift != maxBlockShift {
		t.Fatalf("budget %d gets blocks of %d keys, want %d", budget, 1<<w.blockShift, 1<<maxBlockShift)
	}
	var bySeq []windowKey // every key the window took, by sequence number
	// aroundHead checks seen for the keys on either side of head.
	aroundHead := func(label string) {
		t.Helper()
		for seq := max(w.head, 4) - 4; seq < min(w.head+4, w.tail); seq++ {
			k := bySeq[seq]
			if got, want := w.seen(k), ref.seen(spelling(k)); got != want {
				t.Fatalf("%s: seen(%q), head %d, seq %d = %v, the reference says %v", label, spelling(k), w.head, seq, got, want)
			}
		}
		if got := viewKeys(w.snapshotView()); !slices.Equal(got, ref.fifo) {
			t.Fatalf("%s: view of %d keys differs from the reference's %d", label, len(got), len(ref.fifo))
		}
	}
	sweeps, restored := 0, false
	record := func(k windowKey) {
		t.Helper()
		label := fmt.Sprintf("sequence number %d", len(bySeq))
		if !w.seen(k) {
			bySeq = append(bySeq, k)
		}
		if w.head-w.base == 1<<w.blockShift-1 && w.len() == budget {
			aroundHead(label + ", before a sweep")
		}
		base := w.base
		w.record(k)
		ref.record(spelling(k))
		if w.len() != len(ref.set) || w.evicted() != ref.evictions {
			t.Fatalf("%s: len %d evicted %d, the reference's %d and %d", label, w.len(), w.evicted(), len(ref.set), ref.evictions)
		}
		assertIndexHolds(t, label, w)
		if w.base != base {
			sweeps++
			aroundHead(label + ", after a sweep")
		}
	}
	for i := 0; i < fresh; i++ {
		record(nameKey(fmt.Sprint("tenant-", i%7), fmt.Sprint("run-3#", i)))
		switch {
		case i%5 == 0 && w.evicted() > 0:
			record(bySeq[w.head-1]) // just forgotten: taken again
		case i%5 == 2:
			record(bySeq[w.head]) // remembered: a no-op
		}
		if !restored && sweeps == 2 && w.head-w.base == 1<<(w.blockShift-1) {
			ref.restore(viewKeys(w.snapshotView()), w.evicted())
			w.restore(slices.Clone(ref.fifo), w.evicted())
			restored = true
			bySeq = slices.Clone(bySeq[:w.head]) // the window names its keys from here on
			for seq := w.head; seq < w.tail; seq++ {
				bySeq = append(bySeq, listedKey(ref.fifo[seq-w.head]))
			}
			assertIndexHolds(t, "after the restore", w)
			aroundHead("after the restore")
		}
	}
	if sweeps < 4 || !restored {
		t.Fatalf("%d sweeps, restored %v: the run did not cover the cycle", sweeps, restored)
	}
	for _, s := range ref.fifo {
		if !w.seen(listedKey(s)) {
			t.Fatalf("remembered key %q is not seen", s)
		}
	}
}

// TestKeyWindowPartialTagTwins: from twinBudget on a slot keeps the same
// partial tag of collidingTags[0] and of its twin, whose keys share a home
// too, so only the spelling tells their keys apart — here a key of another
// spelling carrying the twin's hash, and one carrying a's very hash.
func TestKeyWindowPartialTagTwins(t *testing.T) {
	first, twin := collidingHash(collidingTags[0]), collidingHash(collidingTags[2])
	if w := newKeyWindow(twinBudget - 1); w.partial(first) == w.partial(twin) {
		t.Errorf("budget %d: collidingTags[0] and [2] are partial twins already", twinBudget-1)
	}
	for _, budget := range []int{twinBudget, 40, 64, 5000, DefaultMaxKeys / DefaultShards, maxBudget} {
		// A window of maxBudget would make its index; its slot layout is
		// all partial reads.
		w := keyWindow{seqMask: seqMaskFor(budget + 1<<maxBlockShift)}
		if budget < 1<<maxBlockShift {
			w = newKeyWindow(budget)
		}
		if w.partial(first) != w.partial(twin) {
			t.Fatalf("budget %d: partial tags %#x and %#x differ", budget, w.partial(first), w.partial(twin))
		}
	}
	a := nameKey("acme", "k")
	a.hash = first
	impostor, clone := nameKey("acme", "j"), nameKey("acme", "m")
	impostor.hash, clone.hash = twin, first
	if prog := twinProgram(); len(prog) < 2+8*8 || prog[0] < twinBudget-1 {
		t.Errorf("twinProgram runs %d turns at budget %d", (len(prog)-2)/8, int(prog[0])+1)
	}
	w := windowOf(twinBudget, a)
	if !w.seen(a) || w.seen(impostor) || w.seen(clone) {
		t.Fatalf("seen(a) %v, seen(the twin hash) %v, seen(a's hash) %v; want true, false and false", w.seen(a), w.seen(impostor), w.seen(clone))
	}
	w.record(impostor)
	if w.len() != 2 || !w.seen(a) || !w.seen(impostor) || w.seen(clone) {
		t.Fatalf("after recording the twin: len %d, seen %v, %v and %v", w.len(), w.seen(a), w.seen(impostor), w.seen(clone))
	}
}

// TestKeyWindowRestoreLongerThanBudget restores a list far longer than the
// budget, whose sequence numbers a slot sized by the budget alone could not
// tell apart: every key is remembered until the next record trims the list
// to the budget, oldest first.
func TestKeyWindowRestoreLongerThanBudget(t *testing.T) {
	const budget, n = 3, 5000
	var list []string
	for i := range n {
		list = append(list, spelling(nameKey(fmt.Sprint("t", i%7), fmt.Sprint("k", i))))
	}
	w, ref := windowOf(budget), newRefWindow(budget)
	w.restore(list, 11)
	ref.restore(list, 11)
	assertIndexHolds(t, "restored", w)
	if w.len() != n {
		t.Fatalf("restored %d keys of %d", w.len(), n)
	}
	for _, s := range list {
		if !w.seen(listedKey(s)) {
			t.Fatalf("restored key %q is not seen", s)
		}
	}
	k := nameKey("late", "comer")
	w.record(k)
	ref.record(spelling(k))
	assertIndexHolds(t, "after one record", w)
	if got := viewKeys(w.snapshotView()); !slices.Equal(got, ref.fifo) || w.evicted() != ref.evictions {
		t.Fatalf("view %q evicted %d, the reference's %q and %d", got, w.evicted(), ref.fifo, ref.evictions)
	}
	for _, s := range list {
		if got, want := w.seen(listedKey(s)), ref.seen(s); got != want {
			t.Fatalf("seen(%q) = %v, the reference says %v", s, got, want)
		}
	}
}

// TestKeyWindowIndexLoad: a serving shard's window sizes its index when it
// is made, for the budget and a sweep's lingering keys at most ¾ full, and
// never resizes it: three budgets of keys later it is the same array.
func TestKeyWindowIndexLoad(t *testing.T) {
	w := windowOf(DefaultMaxKeys / DefaultShards)
	slots := w.slots
	if held := w.budget + 1<<w.sweepShift; 4*held > 3*len(slots) || 4*held < 3*(len(slots)-1) {
		t.Fatalf("an index of %d slots for %d keys", len(slots), held)
	}
	for i := 0; i < 3*w.budget; i++ {
		w.record(nameKey("t", fmt.Sprint("k", i)))
		if len(w.slots) != len(slots) || &w.slots[0] != &slots[0] {
			t.Fatalf("after %d keys: the index was resized from %d to %d slots", i+1, len(slots), len(w.slots))
		}
		if 4*(w.tail-w.base) > 3*uint64(len(w.slots)) {
			t.Fatalf("after %d keys: %d slots in use of %d", i+1, w.tail-w.base, len(w.slots))
		}
	}
	if w.evicted() != 2*uint64(w.budget) {
		t.Fatalf("%d keys forgotten, want %d", w.evicted(), 2*w.budget)
	}
	assertIndexHolds(t, "after three budgets", w)
}

// TestKeyWindowSweepsSeveralBlocks runs a window whose budget is large
// enough that a sweep forgets a sixteenth of it, two blocks, at a time
// against refWindow: after every sweep the index holds one slot per key
// from base on and the keys on either side of head are seen as the
// reference sees them; halfway through the second block of every sweep's
// worth, with the whole first block and half the second forgotten but not
// swept, the view is the reference's FIFO, a window restored from it
// remembers what the reference does, and once the window itself is
// restored from it; at the end every remembered key is seen.
func TestKeyWindowSweepsSeveralBlocks(t *testing.T) {
	const budget = 1 << 17
	key := func(i int) windowKey { return nameKey(fmt.Sprint("t", i%5), fmt.Sprint("run-9#", i)) }
	w, ref := windowOf(budget), newRefWindow(budget)
	if w.sweepShift != w.blockShift+1 {
		t.Fatalf("a sweep forgets %d keys in blocks of %d, want two blocks", 1<<w.sweepShift, 1<<w.blockShift)
	}
	aroundHead := func(label string, w *keyWindow, i int) {
		t.Helper()
		for j := i - budget - 4; j < i-budget+4; j++ {
			if got, want := w.seen(key(j)), ref.seen(spelling(key(j))); got != want {
				t.Fatalf("%s: seen(%q) = %v, the reference says %v", label, spelling(key(j)), got, want)
			}
		}
	}
	sweeps, views := 0, 0
	for i := range 3 * budget {
		base := w.base
		w.record(key(i))
		ref.record(spelling(key(i)))
		if w.head-w.base == 3<<(w.blockShift-1) {
			views++
			label := fmt.Sprintf("after key %d, %d keys forgotten past base", i, w.head-w.base)
			view := w.snapshotView()
			got := viewKeys(view)
			if view.len() != len(got) || !slices.Equal(got, ref.fifo) {
				t.Fatalf("%s: view of %d keys (len %d), the reference's %d", label, len(got), view.len(), len(ref.fifo))
			}
			restored := newKeyWindow(budget)
			restored.restore(got, w.evicted())
			if again := viewKeys(restored.snapshotView()); !slices.Equal(again, ref.fifo) || restored.evicted() != ref.evictions {
				t.Fatalf("%s: restored view of %d keys, evicted %d; the reference's %d and %d", label, len(again), restored.evicted(), len(ref.fifo), ref.evictions)
			}
			aroundHead(label+", restored", &restored, i)
			if views == 2 {
				w.restore(got, w.evicted())
				assertIndexHolds(t, label+", the window restored", w)
			}
			aroundHead(label, w, i)
		}
		if w.base == base {
			continue
		}
		sweeps++
		assertIndexHolds(t, fmt.Sprintf("after key %d", i), w)
		if len(w.blocks) != int((w.tail-w.base+1<<w.blockShift-1)>>w.blockShift) {
			t.Fatalf("after key %d: %d blocks for %d keys", i, len(w.blocks), w.tail-w.base)
		}
		aroundHead(fmt.Sprintf("after key %d", i), w, i)
	}
	if sweeps < 4 || views < 4 {
		t.Fatalf("%d sweeps, %d views halfway through a sweep's worth", sweeps, views)
	}
	if got := viewKeys(w.snapshotView()); !slices.Equal(got, ref.fifo) || w.evicted() != ref.evictions {
		t.Fatalf("view of %d keys, evicted %d; the reference's %d and %d", len(got), w.evicted(), len(ref.fifo), ref.evictions)
	}
	for _, s := range ref.fifo {
		if !w.seen(listedKey(s)) {
			t.Fatalf("remembered key %q is not seen", s)
		}
	}
}

// assertDisplacements fails unless every slot's displacement, from its
// field or from far, is its distance from its key's home — the key named by
// name from its decoded spelling — and far holds exactly the slots whose
// field says it does.
func assertDisplacements(t *testing.T, label string, w *keyWindow, name func(tenant, key string) windowKey) {
	t.Helper()
	shift, farSlots := uint(bits.Len32(w.seqMask)), 0
	for i, s := range w.slots {
		if s == 0 {
			continue
		}
		tenant, key, _ := strings.Cut(string(w.decode(s)), "\x00")
		want := uint32((i - w.home(name(tenant, key).hash) + len(w.slots)) % len(w.slots))
		d, inFar := w.far[s&w.seqMask]
		if s>>shift&farDisp != farDisp {
			d = s >> shift & farDisp
			if inFar {
				t.Fatalf("%s: slot %d keeps its displacement %d and far holds %d for it", label, i, d, w.far[s&w.seqMask])
			}
		} else if farSlots++; !inFar {
			t.Fatalf("%s: slot %d is far from home and far does not hold it", label, i)
		}
		if d != want {
			t.Fatalf("%s: slot %d is %d from home, its displacement says %d", label, i, want, d)
		}
	}
	if farSlots != len(w.far) {
		t.Fatalf("%s: far holds %d slots, %d are far from home", label, len(w.far), farSlots)
	}
}

// TestKeyWindowFarDisplacements builds, from collidingKey's hashes, chains
// far longer than a slot's displacement field, and holds the window to
// refWindow through record, seen, sweep, restore and snapshotView, with
// every slot's displacement checked after each step; then it checks that
// FuzzKeyWindow's farProgram seed reaches far too.
func TestKeyWindowFarDisplacements(t *testing.T) {
	const budget = 64
	// The dashes cycle a spelling's length, so collidingKey's classes
	// take turns.
	key := func(i int) windowKey {
		return collidingKey(fmt.Sprint("t", i%3), fmt.Sprint("k", i, strings.Repeat("-", i%5)))
	}
	w, ref := windowOf(budget), newRefWindow(budget)
	mostFar, sweeps, restored := 0, 0, false
	check := func(label string, next int) {
		t.Helper()
		if got := viewKeys(w.snapshotView()); !slices.Equal(got, ref.fifo) || w.len() != len(ref.set) || w.evicted() != ref.evictions {
			t.Fatalf("%s: view %q evicted %d, the reference's %q and %d", label, got, w.evicted(), ref.fifo, ref.evictions)
		}
		for i := max(next-3*budget/2, 0); i < next+4; i++ {
			if got, want := w.seen(key(i)), ref.seen(spelling(key(i))); got != want {
				t.Fatalf("%s: seen(%q) = %v, the reference says %v", label, spelling(key(i)), got, want)
			}
		}
		assertIndexHolds(t, label, w)
		assertDisplacements(t, label, w, collidingKey)
		mostFar = max(mostFar, len(w.far))
	}
	for i := range 6 * budget {
		base := w.base
		w.record(key(i))
		ref.record(spelling(key(i)))
		if w.base != base {
			sweeps++
		}
		label := fmt.Sprintf("after key %d", i)
		check(label, i+1)
		if i == 3*budget+budget/2 {
			// Restore from the view with half a block lingering, naming
			// the list's keys as collidingKey does (see FuzzKeyWindow).
			list, evicted := viewKeys(w.snapshotView()), w.evicted()
			ref.restore(list, evicted)
			w.restore(nil, evicted)
			for _, s := range list {
				tenant, k, _ := strings.Cut(s, "\x00")
				w.record(collidingKey(tenant, k))
			}
			restored = true
			check(label+", restored", i+1)
		}
	}
	if mostFar == 0 || sweeps < 4 || !restored {
		t.Fatalf("far held at most %d slots over %d sweeps, restored %v: the run did not cover far chains", mostFar, sweeps, restored)
	}
	if n := runKeyWindowProgram(t, farProgram); n == 0 {
		t.Error("FuzzKeyWindow's farProgram seed never puts a slot in far")
	}
}

// windowBytesPerKey is what w holds per remembered key: keyWindow.bytes
// (every block's data, restarts and tags by capacity, and the index) over
// the keys it remembers.
func windowBytesPerKey(w *keyWindow) float64 { return float64(w.bytes()) / float64(w.len()) }

// fillProduction records keys from next into a window of one serving
// shard's budget (64 Ki keys, 4096-key blocks) until it has forgotten two
// budgets of them, so it holds what a node's shard holds in steady state,
// and returns the window and the mean length of the spellings it took.
func fillProduction(t *testing.T, next func() windowKey) (*keyWindow, float64) {
	t.Helper()
	w := windowOf(DefaultMaxKeys / DefaultShards)
	if w.budget != 1<<16 || w.blockShift != maxBlockShift {
		t.Fatalf("budget %d, blocks of %d keys; want 64 Ki and %d", w.budget, 1<<w.blockShift, 1<<maxBlockShift)
	}
	spelled, n := 0, 0
	for w.evicted() < 2*uint64(w.budget) {
		k := next()
		w.record(k)
		spelled += len(spelling(k))
		n++
	}
	return w, float64(spelled) / float64(n)
}

// TestKeyWindowBytesPerKey pins what a remembered key costs, counted from
// the window's own slices so no host or runtime enters the figure. Derived
// keys are spelled as api.KeyArena spells them, <stream key>#<line>, over
// the benchmark's traffic: 512-record streams round-robin over 8 of 4096
// tenants, of which this window, one of DefaultShards, takes those its
// shard owns. Random 36-byte keys under random tenants share nothing, which
// is front coding's worst case. Each ceiling is the measured figure plus
// 0.5 B.
func TestKeyWindowBytesPerKey(t *testing.T) {
	owner := &Ledger{shards: make([]*shard, DefaultShards)}
	rng := rand.New(rand.NewPCG(1, 2))
	t.Run("derived", func(t *testing.T) {
		var pending []windowKey
		stream := 0
		w, spelled := fillProduction(t, func() windowKey {
			for len(pending) == 0 {
				stream++
				var tenants [8]string
				for i := range tenants {
					tenants[i] = fmt.Sprintf("t%04d", rng.IntN(4096))
				}
				for line := 1; line <= 512; line++ {
					if tenant := tenants[line%len(tenants)]; owner.shardIndex(tenant) == 0 {
						pending = append(pending, nameKey(tenant, fmt.Sprintf("s1-%d#%d", stream, line)))
					}
				}
			}
			k := pending[0]
			pending = pending[1:]
			return k
		})
		const ceiling = 16.67 // bytes per key: 16.17 measured
		got := windowBytesPerKey(w)
		t.Logf("derived keys: %.2f B per key, spellings of %.1f B", got, spelled)
		if got > ceiling {
			t.Errorf("a derived key costs %.2f B, over the %.2f B ceiling", got, ceiling)
		}
	})
	t.Run("random", func(t *testing.T) {
		w, spelled := fillProduction(t, func() windowKey {
			var tenant [8]byte
			var key [36]byte
			for i := range tenant {
				tenant[i] = 'a' + byte(rng.IntN(26))
			}
			for i := range key {
				key[i] = byte(rng.Uint32())
			}
			return nameKey(string(tenant[:]), string(key[:]))
		})
		const ceiling = 54.42 // bytes per key: 53.92 measured
		got := windowBytesPerKey(w)
		t.Logf("random keys: %.2f B per key, spellings of %.1f B", got, spelled)
		if got > ceiling {
			t.Errorf("a random key costs %.2f B, over the %.2f B ceiling", got, ceiling)
		}
	})
}

// TestKeyBytesMatchesHeap holds Stats.KeyBytes, /healthz's
// idempotencyKeyBytes, to the heap: filling a default ledger's windows —
// DefaultShards of them, 64 Ki derived keys each, spelled as
// BenchmarkAccrueBatchKeyed spells them — grows HeapAlloc, after a
// collection, by its KeyBytes within ±10 %. The keys go to the windows
// straight, so no account enters the heap.
func TestKeyBytesMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory enters HeapAlloc")
	}
	tenants := benchTenants(64)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := mustNew(t, Config{})
	var spelled []byte
	for stream := 1; ; stream++ {
		full := true
		for _, ss := range l.Stats().Shards {
			full = full && ss.KeysTracked == DefaultMaxKeys/DefaultShards
		}
		if full {
			break
		}
		for line := 1; line <= 512; line++ {
			tenant := tenants[(stream*8+line%8)%len(tenants)]
			spelled = append(strconv.AppendInt(append(spelled[:0], "run-"...), int64(stream), 10), '#')
			spelled = strconv.AppendInt(spelled, int64(line), 10)
			sh := l.shards[l.shardIndex(tenant)]
			sh.mu.Lock()
			sh.dedup.record(nameKey(tenant, string(spelled)))
			sh.mu.Unlock()
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	keyBytes := l.Stats().KeyBytes
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("KeyBytes %d, HeapAlloc grew %d (%.3f×)", keyBytes, grown, float64(grown)/float64(keyBytes))
	if grown < int64(keyBytes)*9/10 || grown > int64(keyBytes)*11/10 {
		t.Errorf("KeyBytes %d, but HeapAlloc grew %d", keyBytes, grown)
	}
	runtime.KeepAlive(l)
}

// TestShardBudget: a shard's slice of MaxKeys is the ceiling of MaxKeys over
// Shards, and a budget too large to add Shards to without overflow lands on
// the per-shard clamp like any other large one, rather than wrapping to one
// key a shard. New's index sizing makes these budgets untestable through
// New itself: a clamped 16-shard ledger would make 2.9 GB of index.
func TestShardBudget(t *testing.T) {
	const shards = DefaultShards
	for _, c := range []struct {
		maxKeys, shards, want int
	}{
		{math.MaxInt, shards, maxBudget},
		{math.MaxInt - shards + 1, shards, maxBudget},
		{math.MaxInt - 3, shards, maxBudget},
		{math.MaxInt, 1, maxBudget},
		{1 << 40, shards, maxBudget},
		{shards * (maxBudget - 1), shards, maxBudget - 1},
		{shards*(maxBudget-1) + 1, shards, maxBudget},
		{shards * maxBudget, shards, maxBudget},
		{shards * (maxBudget + 1), shards, maxBudget},
		{DefaultMaxKeys, shards, DefaultMaxKeys / shards},
		{DefaultMaxKeys + 1, shards, DefaultMaxKeys/shards + 1},
		{1, shards, 1},
		{0, shards, 1},
		{7, 3, 3},
	} {
		if got := shardBudget(c.maxKeys, c.shards); got != c.want {
			t.Errorf("shardBudget(%d, %d) = %d, want %d", c.maxKeys, c.shards, got, c.want)
		}
	}
}
