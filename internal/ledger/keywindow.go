package ledger

// keywindow.go is the idempotency window: what a key is, how long it is
// remembered and how it is saved are each written here, once. The store
// (accrueLocked, apply, replay, restoreFrom, streamSnapshot, probe, Stats)
// goes through the calls below and never sees the index, the blocks
// or the spelling of a key, so a different retention policy — ROADMAP item
// 10's time horizon — replaces this file and has keywindow_test.go to pass.
//
// A key belongs to its tenant: tenant B reusing (or guessing) tenant A's key
// must still bill. The tenant also pins a key to the tenant's shard, so a
// key check never crosses shards and each shard owns one window.
//
// Retention is by count, not by time: a window remembers its newest budget
// keys and forgets the oldest first, so how long a retry is still recognised
// depends on how fast the shard's tenants send keys (the hole item 10
// closes). Every forgotten key is counted.
//
// Representation. Every key a window takes gets the next sequence number,
// and its spelling is appended to the window's newest block: a block holds a
// fixed number of keys as one []byte of spellings back to back, a []uint32
// of end offsets and a []uint64 of hashes — no pointers, so the GC never
// scans a key, and a block that has filled up is never written again.
// Membership is one open-addressed, linear-probing index of 8-byte slots,
// each a 32-bit tag from the key's hash beside the low 32 bits of its
// sequence number; a slot's home is a function of its tag alone, so growing
// and backward-shift deletion never read a key's bytes.
//
// Forgetting is lazy. Forgetting the oldest key only advances the head
// sequence number; its slot lingers, and a probe that meets a lingering
// slot with its tag takes it for absent by one subtraction, before reading
// any spelling. When a block's last key is forgotten, one sweep deletes the
// block's slots by backward shift in ascending order of home — a counting
// pass over the top bits of each home, sized to the block, orders them —
// and drops the block: each block of forgotten keys walks the index front
// to back once, and no key is forgotten by a random probe of its own. The
// index holds the live keys and at most one block's lingering
// slots; it doubles to keep the live keys at most half of it and all its
// slots at most three quarters, so every probe chain ends.
//
// A batch's probe pass (Ledger.probe) first loads the home slots of a
// chunk's keys back to back with touch, under the shard lock, so their cache
// misses overlap; then, per record, seen decides Duplicate and record checks,
// evicts and inserts, both walking a chain already in cache. A key costs its
// spelling's bytes plus 4 B of end offset, 8 B of hash and, at the index's
// load of ½, 16 B of slots; in time, one probe into the index and a 1/4096
// share of its block's sweep — where a set of joined strings with a FIFO
// beside it cost a 48 B string allocation, a map slot and a FIFO entry, and
// one allocation per keyed record.

import (
	"hash/maphash"
	"iter"
	"math/bits"
	"slices"
)

// windowSeed seeds every key's hash, once per process, so no client can
// choose keys that share one probe chain.
var windowSeed = maphash.MakeSeed()

// windowKey names one (tenant, key) pair inside a keyWindow; nameKey is how
// the store builds one, and the zero value (hash 0) means the entry carries
// no key. The spelling — tenant, a NUL, key — is the version-1 snapshot's
// key list, so it cannot change without a format break. It is unambiguous
// because validateEntry refuses a tenant holding a NUL: the first NUL always
// ends the tenant, and keys may hold more. The hash is a function of the
// spelling alone, so a key a ledger older than that rule saved under tenant
// "a\x00b" is found as ("a\x00b", "k") and as ("a", "b\x00k") alike.
type windowKey struct {
	// tenant, NUL, key is the spelling; an entry of a restored key list is
	// kept whole in tenant, with key "" (nameKey never builds that shape).
	tenant, key string
	hash        uint64
}

// nameKey scopes an idempotency key to its tenant. It hashes the spelling
// without building it, so it allocates nothing.
func nameKey(tenant, key string) windowKey {
	if key == "" {
		return windowKey{}
	}
	var h maphash.Hash
	h.SetSeed(windowSeed)
	h.WriteString(tenant)
	h.WriteByte(0)
	h.WriteString(key)
	return windowKey{tenant: tenant, key: key, hash: h.Sum64() | 1}
}

// listedKey names a key list's entry, taken whole as written.
func listedKey(spelling string) windowKey {
	return windowKey{tenant: spelling, hash: maphash.String(windowSeed, spelling) | 1}
}

// spells reports whether sp is k's spelling, comparing in place.
func (k windowKey) spells(sp []byte) bool {
	if k.key == "" {
		return string(sp) == k.tenant
	}
	n := len(k.tenant)
	return len(sp) == n+1+len(k.key) && sp[n] == 0 && string(sp[:n]) == k.tenant && string(sp[n+1:]) == k.key
}

// tagOf is the index tag of a key with the given hash: 32 bits of it, never
// zero, so a zero slot is an empty one.
func tagOf(hash uint64) uint32 { return uint32(hash>>32) | 1 }

// keyBlock holds up to a window's block size of keys, oldest first. Its
// offsets are 32-bit because a block's spellings stay below 4 GiB: a key is
// bounded by one WAL frame (1 MiB) and a block holds at most
// 1<<maxBlockShift of them.
type keyBlock struct {
	spellings []byte
	ends      []uint32 // key i is spellings[ends[i-1]:ends[i]] (from 0 for i = 0)
	hashes    []uint64 // key i's hash, to find its slot when it is forgotten
}

func (b *keyBlock) spelling(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.spellings[start:b.ends[i]]
}

const (
	// maxBlockShift caps a block at 4096 keys, so its three allocations
	// cost a keyed record under a thousandth of one; a smaller budget gets
	// blocks of the next power of two at or above it.
	maxBlockShift = 12
	// minSlots is the index's size when a window is created or restored.
	minSlots = 8
	// maxBudget keeps the distance from base to any remembered key below
	// 2³², so the low 32 bits of a sequence number, all a slot keeps of it,
	// name one key. It binds only a budget no machine has the memory to fill.
	maxBudget = 1 << 31
	// fibonacci is 2⁶⁴/φ: a tag times it, top bits taken, is the tag's home.
	fibonacci = 0x9e3779b97f4a7c15
)

// keyWindow is one shard's bounded memory of the keys it billed. It has no
// lock of its own — it is a field of shard and every method runs under that
// shard's mu, which lockcheck proves at each sh.dedup touch.
type keyWindow struct {
	// budget is this shard's ceil(MaxKeys/Shards) slice of the key budget;
	// see Config.MaxKeys for the bounded overshoot this implies.
	budget int
	// head is the oldest remembered key's sequence number, tail the next
	// key's. Keys are forgotten oldest first, so head also counts the keys
	// forgotten since creation (or carried by the last restore).
	head, tail uint64
	// blocks hold the keys from sequence number base on, 1<<blockShift per
	// block; only the last one is ever appended to.
	blocks     []keyBlock
	base       uint64
	blockShift uint
	// slots is the membership index: tag<<32 | low 32 bits of the sequence
	// number, 0 for empty; len(slots) is a power of two, 64-slotShift its log.
	// It holds one slot per key from base on, forgotten ones included.
	slots     []uint64
	slotShift uint
}

func newKeyWindow(budget int) keyWindow {
	budget = int(min(uint64(max(budget, 1)), maxBudget))
	return keyWindow{
		budget:     budget,
		blockShift: uint(min(bits.Len(uint(budget-1)), maxBlockShift)),
		slots:      make([]uint64, minSlots),
		slotShift:  64 - uint(bits.TrailingZeros(minSlots)),
	}
}

// touch loads the home slot of each key keys[i], i in idx, and returns the
// loaded words folded together, for the caller to keep where the compiler
// cannot drop the loads. No load depends on another, so their cache misses
// overlap, where the walks that follow would each stall on their own.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) touch(keys *[probeChunk]windowKey, idx []uint8) uint64 {
	var sum uint64
	for _, i := range idx {
		sum ^= w.slots[w.home(tagOf(keys[i].hash))]
	}
	return sum
}

// seen reports whether k is remembered, walking k's probe chain from its
// home to the first empty slot: a slot whose tag matches is k if its key is
// still remembered and its spelling is k's. A key without a name is never
// found, and an evicted key is not, exactly as record would take it again.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) seen(k windowKey) bool {
	if k.hash == 0 {
		return false
	}
	tag, mask := tagOf(k.hash), uint64(len(w.slots)-1)
	head, live := uint32(w.head), uint32(w.len())
	for i := w.home(tag); ; i = (i + 1) & mask {
		s := w.slots[i]
		if s == 0 {
			return false
		}
		// A forgotten key's slot lingers until its block's sweep; its
		// distance from head wraps past every live key's.
		if uint32(s>>32) == tag && uint32(s)-head < live && k.spells(w.spelling(uint32(s))) {
			return true
		}
	}
}

// record remembers k, evicting the oldest keys beyond the budget; a key
// without a name and a key already remembered change nothing (no re-queue,
// no eviction). That check is what keeps replay of a damaged log from
// queueing a key twice.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) record(k windowKey) {
	if k.hash == 0 || w.seen(k) {
		return
	}
	for w.len() >= w.budget {
		w.evictOldest()
	}
	w.insert(k)
}

// restore replaces the window with a snapshot's: its key list, oldest first,
// and its eviction count. Each entry is taken whole, as written — a key a
// ledger older than the NUL rule saved under a NUL-holding tenant comes back
// as the same spelling — and copied, so the window owns its bytes. An entry
// already taken collapses into the first, as record would collapse it (no
// window writes such a list). Nothing is evicted here: a list longer than
// the budget is trimmed by the next record.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) restore(keys []string, evicted uint64) {
	*w = newKeyWindow(w.budget)
	w.head, w.tail, w.base = evicted, evicted, evicted
	for _, s := range keys {
		if k := listedKey(s); !w.seen(k) {
			w.insert(k)
		}
	}
}

// keyView is the remembered keys, oldest first, as snapshotView took them.
type keyView struct {
	blocks []keyBlock // copies of the window's block headers
	first  int        // the oldest key's index in blocks[0]
}

// snapshotView returns the remembered keys as a view the caller may keep
// reading after it releases the shard lock — the snapshot writes it, the
// bulk of its document, beside live ingest. That is safe because no byte a
// view holds is ever rewritten: the view copies the block headers, each cut
// at the keys its block held; record appends past those lengths (or to a
// fresh array, which leaves the old one as it was) and to new blocks;
// eviction only moves head, and its sweep writes the index and lets go of a
// block; restore starts fresh blocks. Whoever changes the representation
// owes this method a copy or the same guarantee (keywindow_test.go holds it
// to that under -race).
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) snapshotView() keyView {
	return keyView{blocks: slices.Clone(w.blocks), first: int(w.head - w.base)}
}

// len is the number of keys the view holds.
func (v keyView) len() int {
	n := -v.first
	for i := range v.blocks {
		n += len(v.blocks[i].ends)
	}
	return n
}

// all yields each key's spelling, oldest first. The slices are the blocks'
// own bytes: valid for as long as the view, and never to be written.
func (v keyView) all() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		j := v.first
		for bi := range v.blocks {
			b := &v.blocks[bi]
			for ; j < len(b.ends); j++ {
				if !yield(b.spelling(j)) {
					return
				}
			}
			j = 0
		}
	}
}

// len is the number of keys remembered now; evicted the number forgotten
// since creation (or carried by the last restore). They are Stats'
// KeysTracked and KeysEvicted, /healthz idempotencyKeys and keysEvicted.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) len() int { return int(w.tail - w.head) }

//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) evicted() uint64 { return w.head }

// home is the slot a key with this tag probes first.
func (w *keyWindow) home(tag uint32) uint64 { return uint64(tag) * fibonacci >> w.slotShift }

// spelling returns the bytes of the remembered key whose sequence number
// ends in low.
func (w *keyWindow) spelling(low uint32) []byte {
	off := uint64(low - uint32(w.base)) // the key's distance from base
	return w.blocks[off>>w.blockShift].spelling(int(off & (1<<w.blockShift - 1)))
}

// insert appends k, which seen found absent, as the newest key, in the
// first empty slot of its chain.
func (w *keyWindow) insert(k windowKey) {
	if 2*(w.len()+1) > len(w.slots) || 4*(w.tail-w.base+1) > 3*uint64(len(w.slots)) {
		w.grow()
	}
	if w.tail-w.base == uint64(len(w.blocks))<<w.blockShift {
		w.blocks = append(w.blocks, w.newBlock())
	}
	b := &w.blocks[len(w.blocks)-1]
	b.spellings = append(b.spellings, k.tenant...)
	if k.key != "" {
		b.spellings = append(append(b.spellings, 0), k.key...)
	}
	b.ends = append(b.ends, uint32(len(b.spellings)))
	b.hashes = append(b.hashes, k.hash)
	tag := tagOf(k.hash)
	w.slots[w.vacancy(tag)] = uint64(tag)<<32 | uint64(uint32(w.tail))
	w.tail++
}

// newBlock sizes a block's offsets and hashes exactly and its spellings by
// the block before it, so a block is three allocations. A window's first
// block grows by append instead: a window that never fills one (a small
// shard, a test's) costs what it holds.
func (w *keyWindow) newBlock() keyBlock {
	if len(w.blocks) == 0 {
		return keyBlock{}
	}
	n, last := 1<<w.blockShift, len(w.blocks[len(w.blocks)-1].spellings)
	return keyBlock{
		spellings: make([]byte, 0, last+last/8),
		ends:      make([]uint32, 0, n),
		hashes:    make([]uint64, 0, n),
	}
}

// vacancy returns the first empty slot of the chain from tag's home.
func (w *keyWindow) vacancy(tag uint32) uint64 {
	mask := uint64(len(w.slots) - 1)
	i := w.home(tag)
	for w.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// evictOldest forgets the oldest key by moving head past it. Its slot
// lingers until the key's block has no key left, and then sweep goes.
func (w *keyWindow) evictOldest() {
	w.head++
	if w.head-w.base == 1<<w.blockShift {
		w.sweep()
	}
}

// sweep deletes the oldest block's slots, all of them forgotten, and drops
// the block. The slots go in ascending order of home, so the deletions walk
// the index front to back: one counting pass over the top bits of each
// key's home, one bucket per key the block holds, orders the block.
func (w *keyWindow) sweep() {
	b := &w.blocks[0]
	bucketBits := min(64-w.slotShift, w.blockShift)
	shift := 64 - w.slotShift - bucketBits // home>>shift is the home's bucket
	var counts [1<<maxBlockShift + 1]uint16
	var order [1 << maxBlockShift]uint16
	count := counts[:1<<bucketBits+1]
	for _, h := range b.hashes {
		count[w.home(tagOf(h))>>shift+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	for k, h := range b.hashes {
		c := &count[w.home(tagOf(h))>>shift]
		order[*c] = uint16(k)
		*c++
	}
	mask := uint64(len(w.slots) - 1)
	for _, k := range order[:len(b.hashes)] {
		tag := tagOf(b.hashes[k])
		want := uint64(tag)<<32 | uint64(uint32(w.base)+uint32(k))
		i := w.home(tag)
		for w.slots[i] != want {
			i = (i + 1) & mask
		}
		// Backward shift: each later slot of the chain moves into the hole
		// unless that would put it before its home, and the last hole empties.
		for j := (i + 1) & mask; w.slots[j] != 0; j = (j + 1) & mask {
			s := w.slots[j]
			if (j-w.home(uint32(s>>32)))&mask >= (j-i)&mask {
				w.slots[i] = s
				i = j
			}
		}
		w.slots[i] = 0
	}
	n := copy(w.blocks, w.blocks[1:])
	w.blocks[n] = keyBlock{}
	w.blocks = w.blocks[:n]
	w.base = w.head
}

// grow doubles the index, re-placing every slot by its tag.
func (w *keyWindow) grow() {
	old := w.slots
	w.slots = make([]uint64, 2*len(old))
	w.slotShift--
	for _, s := range old {
		if s != 0 {
			w.slots[w.vacancy(uint32(s>>32))] = s
		}
	}
}
