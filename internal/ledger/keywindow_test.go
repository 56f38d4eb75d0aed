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
	"math/rand/v2"
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

// collidingTags are three distinct tags whose home is the last slot of every
// index up to 256 slots, the most a FuzzKeyWindow window grows to: keys
// carrying them share one probe chain, which wraps the table. The first two
// keep that home up to 1024 slots. The first and the third differ only in
// bits 1 to 7, which a slot of seven or more sequence bits does not keep of
// a tag (the seventh is forced set), so at a budget from twinBudget on their
// slots' partial tags are equal too. No pair does that at every budget:
// two tags that differ only in a few low bits have homes a fixed fraction
// of the table apart.
var collidingTags = func() [3]uint32 {
	last := func(tag uint32, log uint) bool {
		probe := keyWindow{slotShift: 64 - log}
		return probe.home(tag) == 1<<log-1
	}
	var tags [3]uint32
	for tag := uint32(1); tags[2] == 0; tag += 2 {
		for d := uint32(2); d < 1<<8 && tags[2] == 0 && last(tag, 10); d += 2 {
			if last(tag^d, 8) {
				tags[0], tags[2] = tag, tag^d
			}
		}
	}
	for tag := uint32(1); tags[1] == 0; tag += 2 {
		if last(tag, 10) && tag != tags[0] && tag != tags[2] {
			tags[1] = tag
		}
	}
	return tags
}()

// twinBudget is the smallest budget whose slots keep seven or more
// sequence bits, where collidingTags[0] and [2] are partial twins.
const twinBudget = 32

// collidingKey is nameKey with a hand-picked hash that is still a function
// of the spelling: one class per spelling, by its length — two share a tag
// and the whole hash, one shares only the tag's home, one shares the home
// and (from twinBudget on) the slot's partial tag with the first two but not
// the full tag, and one hashes normally.
func collidingKey(tenant, key string) windowKey {
	k := nameKey(tenant, key)
	if k.hash == 0 {
		return k
	}
	switch len(spelling(k)) % 5 {
	case 0, 1:
		k.hash = uint64(collidingTags[0])<<32 | 1
	case 2:
		k.hash = uint64(collidingTags[1])<<32 | 1
	case 3:
		k.hash = uint64(collidingTags[2])<<32 | 1
	}
	return k
}

// twinProgram is a colliding FuzzKeyWindow program at budget 40 that records
// keys tagged collidingTags[0] and keys tagged its partial twin by turns,
// probing each class right after the other is recorded, until both have
// filled blocks and been swept: every probe of one class walks past slots
// of the other whose partial tag matches and whose full tag does not.
func twinProgram() []byte {
	var first, twin []byte
	for b := range 256 {
		k := collidingKey(fuzzKey(byte(b)))
		switch {
		case k.hash == 0:
		case tagOf(k.hash) == collidingTags[0]:
			first = append(first, byte(b))
		case tagOf(k.hash) == collidingTags[2]:
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
// colliding hand-picked ones: tag collisions, partial tags that match over
// full ones that do not, chains that wrap the table, backward shift across
// the wrap) and whether the count of forgotten keys starts just below 2³²,
// which wraps a slot's few sequence bits many times over.
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
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
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
	})
}

// assertIndexHolds fails unless the index holds one slot for every key from
// base on — the remembered ones and the forgotten ones still lingering until
// their block's sweep — and nothing else.
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
// partial tag of collidingTags[0] and of its twin, so only the full tag,
// read from the block, tells their keys apart — here a key spelled as a
// remembered one but carrying the twin's tag, which its spelling would let
// through.
func TestKeyWindowPartialTagTwins(t *testing.T) {
	if w := newKeyWindow(twinBudget - 1); w.partial(collidingTags[0]) == w.partial(collidingTags[2]) {
		t.Errorf("budget %d: collidingTags[0] and [2] are partial twins already", twinBudget-1)
	}
	for _, budget := range []int{twinBudget, 40, 64, 5000, DefaultMaxKeys / DefaultShards, maxBudget} {
		w := newKeyWindow(budget)
		if w.partial(collidingTags[0]) != w.partial(collidingTags[2]) {
			t.Fatalf("budget %d: partial tags %#x and %#x differ", budget, w.partial(collidingTags[0]), w.partial(collidingTags[2]))
		}
	}
	a := nameKey("acme", "k")
	a.hash = uint64(collidingTags[0])<<32 | 1
	impostor := a
	impostor.hash = uint64(collidingTags[2])<<32 | 1
	if prog := twinProgram(); len(prog) < 2+8*8 || prog[0] < twinBudget-1 {
		t.Errorf("twinProgram runs %d turns at budget %d", (len(prog)-2)/8, int(prog[0])+1)
	}
	w := windowOf(twinBudget, a)
	if !w.seen(a) || w.seen(impostor) {
		t.Fatalf("seen(a) %v, seen(a's spelling under the twin tag) %v; want true and false", w.seen(a), w.seen(impostor))
	}
	w.record(impostor)
	if w.len() != 2 || !w.seen(a) || !w.seen(impostor) {
		t.Fatalf("after recording the twin: len %d, seen %v and %v", w.len(), w.seen(a), w.seen(impostor))
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

// TestKeyWindowIndexLoad: at a budget of exactly one block, forgotten slots
// lingering until the sweep would fill the index the live keys keep half
// empty; it grows instead, so its load stays at most ¾ and chains short.
func TestKeyWindowIndexLoad(t *testing.T) {
	const budget = 1 << maxBlockShift
	w := windowOf(budget)
	for i := 0; i < 3*budget; i++ {
		w.record(nameKey("t", fmt.Sprint("k", i)))
		if 4*(w.tail-w.base) > 3*uint64(len(w.slots)) {
			t.Fatalf("after %d keys: %d slots in use of %d", i+1, w.tail-w.base, len(w.slots))
		}
	}
	assertIndexHolds(t, "after three budgets", w)
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
// is front coding's worst case; they may cost no more than the layout that
// kept every spelling whole with a 4 B end offset, an 8 B hash and 16 B of
// slots beside it.
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
		const ceiling = 23 // bytes per key: 22.5 measured; 30.5 with 8 B slots, 46.9 with whole spellings too
		got := windowBytesPerKey(w)
		t.Logf("derived keys: %.1f B per key, spellings of %.1f B", got, spelled)
		if got > ceiling {
			t.Errorf("a derived key costs %.1f B, over the %d B ceiling", got, ceiling)
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
		got, ceiling := windowBytesPerKey(w), spelled+28
		t.Logf("random keys: %.1f B per key, spellings of %.1f B", got, spelled)
		if got > ceiling {
			t.Errorf("a random key costs %.1f B, over the old layout's %.1f B", got, ceiling)
		}
	})
}
