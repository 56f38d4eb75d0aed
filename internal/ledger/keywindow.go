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
// and its spelling is appended to the window's newest block, front-coded:
// a block holds a fixed number of keys as one []byte in which each key is
// the length of the prefix it shares with the key before it, the length of
// the rest and the rest (two uvarints and the suffix), every 16th key a
// restart point that shares nothing; a []uint32 of restart offsets; and a
// []uint32 of the keys' index tags. There are no pointers, so the GC never
// scans a key, and a block that has filled up is never written again.
// Membership is one open-addressed, linear-probing index of 4-byte slots,
// each the low S bits of a key's sequence number under the top 32−S bits of
// its 32-bit tag (one of them forced set, so a slot is never 0). S is fixed
// when the window is made, with 2^S above the most keys the index can hold,
// so the low bits still name one key. The full tag stays in the key's block,
// where the sequence number finds it: a slot's home is a function of the
// full tag, so growing and the backward shift read it from there, and never
// a key's bytes. A probe compares the partial tag first, reads the full tag
// only for a live key whose partial tag matches, and decodes a spelling only
// when that matches too — a duplicate, or a one-in-2³¹ collision — by
// walking at most 16 keys from a restart point into a buffer the window
// owns; the window also keeps its newest key's spelling, which the next
// key's shared prefix is measured against.
//
// Forgetting is lazy. Forgetting the oldest key only advances the head
// sequence number; its slot lingers, and a probe that meets a lingering
// slot with its partial tag takes it for absent by one subtraction, before
// reading its full tag or any spelling. When a block's last key is
// forgotten, one sweep deletes the block's slots by backward shift in
// ascending order of home — a counting pass over the top bits of each home,
// sized to the block, orders them — and drops the block: each block of
// forgotten keys walks the index front to back once, and no key is
// forgotten by a random probe of its own. The index holds the live keys and
// at most one block's lingering slots; it doubles to keep the live keys at
// most half of it and all its slots at most three quarters, so every probe
// chain ends.
//
// A batch's probe pass (Ledger.probe) first loads the home slots of a
// chunk's keys back to back with touch, under the shard lock, so their cache
// misses overlap; then, per record, seen decides Duplicate and record checks,
// evicts and inserts, both walking a chain already in cache. A key costs its
// suffix's bytes plus 2 B of lengths, 4 B of tag, ¼ B of restart offset and,
// at the index's load of ½, 8 B of slots; in time, one probe into the index
// and a 1/4096 share of its block's sweep — where a set of joined strings
// with a FIFO beside it cost a 48 B string allocation, a map slot and a FIFO
// entry, and one allocation per keyed record. A block's data is sized by the
// block before it and, once full, cloned to its length. Derived keys (a stream key,
// '#', a line number) share most of their spelling with the key before
// them, so a key's suffix is a few bytes of its line number.

import (
	"encoding/binary"
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

// keyBlock holds up to a window's block size of keys, oldest first,
// front-coded. Its offsets are 32-bit because a block's last restart point
// sits below 4 GiB: a key is bounded by one WAL frame (1 MiB) and a block
// holds at most 1<<maxBlockShift of them.
type keyBlock struct {
	// data is key i as uvarint(bytes shared with key i−1), uvarint(bytes
	// not shared), the bytes not shared; a restart point shares nothing.
	data     []byte
	restarts []uint32 // restarts[r] is the offset of key r*restartEvery
	tags     []uint32 // key i's full tag: its home, and the probe's last check
}

// next decodes the key at data[off:] onto prev, the key before it (any
// bytes at a restart point), and returns it with the next key's offset.
// Both lengths are almost always below 128, one byte each.
func (b *keyBlock) next(prev []byte, off int) ([]byte, int) {
	shared, size := uint64(b.data[off]), uint64(b.data[off+1])
	if shared|size < 0x80 {
		off += 2
	} else {
		var n int
		shared, n = binary.Uvarint(b.data[off:])
		off += n
		size, n = binary.Uvarint(b.data[off:])
		off += n
	}
	end := off + int(size)
	return append(prev[:shared], b.data[off:end]...), end
}

// decode returns key i's spelling, decoded into buf from the restart point
// at or before it.
func (b *keyBlock) decode(buf []byte, i int) []byte {
	off := int(b.restarts[i/restartEvery])
	for j := i &^ (restartEvery - 1); ; j++ {
		buf, off = b.next(buf, off)
		if j == i {
			return buf
		}
	}
}

// sharedPrefix is the length of the longest common prefix of a and b.
func sharedPrefix(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

const (
	// maxBlockShift caps a block at 4096 keys, so its three allocations
	// cost a keyed record under a thousandth of one; a smaller budget gets
	// blocks of the next power of two at or above it.
	maxBlockShift = 12
	// restartEvery is how many keys lie between restart points: decoding
	// a key walks at most this many.
	restartEvery = 16
	// minSlots is the index's size when a window is created or restored.
	minSlots = 8
	// maxBudget keeps a slot's sequence bits, which must count past a
	// budget and a block, at 31 or fewer, so at least one bit of tag is
	// left above them. It binds only a budget no machine has the memory to
	// fill.
	maxBudget = 1 << 30
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
	// slots is the membership index: the tag's bits above seqMask, the
	// lowest of them set, over the sequence number's bits under it; 0 for
	// empty. len(slots) is a power of two, 64-slotShift its log. It holds
	// one slot per key from base on, forgotten ones included.
	slots     []uint32
	slotShift uint
	// seqMask is 2^S−1 for a slot's S sequence bits: 2^S exceeds the most
	// keys the index holds, a budget (or a longer restored list) and a
	// block of lingering ones, so a forgotten key's distance from head
	// wraps past every live key's.
	seqMask uint32
	// last is the newest key's spelling; buf is where seen decodes a
	// spelling and insert builds one.
	last, buf []byte
}

func newKeyWindow(budget int) keyWindow {
	budget = int(min(uint64(max(budget, 1)), maxBudget))
	blockShift := uint(min(bits.Len(uint(budget-1)), maxBlockShift))
	return keyWindow{
		budget:     budget,
		blockShift: blockShift,
		slots:      make([]uint32, minSlots),
		slotShift:  64 - uint(bits.TrailingZeros(minSlots)),
		seqMask:    seqMaskFor(budget, blockShift),
	}
}

// seqMaskFor is the sequence mask of an index that holds up to n live keys
// beside a block of 1<<blockShift lingering ones: its 2^S exceeds both
// together. S stops at 31, which a budget reaches only at maxBudget and a
// restored list only past 2³¹ keys.
func seqMaskFor(n int, blockShift uint) uint32 {
	return 1<<min(bits.Len(uint(n)+1<<blockShift), 31) - 1
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
		sum ^= uint64(w.slots[w.home(tagOf(keys[i].hash))])
	}
	return sum
}

// seen reports whether k is remembered, walking k's probe chain from its
// home to the first empty slot: a slot whose partial tag matches is k if its
// key is still remembered, its full tag is k's and its spelling is k's. A
// key without a name is never found, and an evicted key is not, exactly as
// record would take it again.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) seen(k windowKey) bool {
	if k.hash == 0 {
		return false
	}
	tag, mask, seqMask := tagOf(k.hash), uint64(len(w.slots)-1), w.seqMask
	partial, head, live := w.partial(tag), uint32(w.head), uint32(w.len())
	for i := w.home(tag); ; i = (i + 1) & mask {
		s := w.slots[i]
		if s == 0 {
			return false
		}
		// A forgotten key's slot lingers until its block's sweep; its
		// distance from head wraps past every live key's.
		if s&^seqMask == partial && (s-head)&seqMask < live && w.tag(s) == tag && k.spells(w.decode(s)) {
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
// the budget is trimmed by the next record, and until then the index's
// sequence bits count past the list's length.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) restore(keys []string, evicted uint64) {
	*w = newKeyWindow(w.budget)
	w.seqMask = seqMaskFor(max(w.budget, len(keys)), w.blockShift)
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
// fresh array, which leaves the old one as it was — as does the clone a
// full block's data moves to) and to new blocks, and a view decodes into a
// buffer of its own, never the window's last or buf; eviction only moves
// head, and its sweep writes the index and lets go of a block; restore
// starts fresh blocks. Whoever changes the representation
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
		n += len(v.blocks[i].tags)
	}
	return n
}

// all yields each key's spelling, oldest first, decoded into a buffer of
// the iterator's own: a slice is valid until the next one is yielded, and
// never to be written.
func (v keyView) all() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		var buf []byte
		first := v.first
		for bi := range v.blocks {
			b := &v.blocks[bi]
			j, off := first&^(restartEvery-1), 0
			if j < len(b.tags) {
				off = int(b.restarts[j/restartEvery])
			}
			for ; j < len(b.tags); j++ {
				buf, off = b.next(buf, off)
				if j >= first && !yield(buf) {
					return
				}
			}
			first = 0
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

// bytes is what the window holds its keys in: each block's data, restarts
// and tags by capacity, and the index. It is Stats' KeyBytes, /healthz
// idempotencyKeyBytes.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) bytes() int {
	n := 4 * len(w.slots)
	for i := range w.blocks {
		b := &w.blocks[i]
		n += cap(b.data) + 4*cap(b.restarts) + 4*cap(b.tags)
	}
	return n
}

// home is the slot a key with this tag probes first.
func (w *keyWindow) home(tag uint32) uint64 { return uint64(tag) * fibonacci >> w.slotShift }

// partial is what a slot keeps of tag: its bits above the sequence bits,
// the lowest of them set so that no slot is 0.
func (w *keyWindow) partial(tag uint32) uint32 { return (tag | (w.seqMask + 1)) &^ w.seqMask }

// slot is the index entry of the key with this tag and sequence number.
func (w *keyWindow) slot(tag uint32, seq uint64) uint32 {
	return w.partial(tag) | uint32(seq)&w.seqMask
}

// offset is the distance from base of the key whose slot is s.
func (w *keyWindow) offset(s uint32) uint32 { return (s - uint32(w.base)) & w.seqMask }

// tag is the full tag of the key whose slot is s, read from its block.
func (w *keyWindow) tag(s uint32) uint32 {
	off := w.offset(s)
	return w.blocks[off>>w.blockShift].tags[off&(1<<w.blockShift-1)]
}

// decode returns the spelling of the key whose slot is s, decoded into the
// window's buffer: valid until the next decode or insert.
func (w *keyWindow) decode(s uint32) []byte {
	off := w.offset(s)
	w.buf = w.blocks[off>>w.blockShift].decode(w.buf, int(off&(1<<w.blockShift-1)))
	return w.buf
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
	sp := append(w.buf[:0], k.tenant...)
	if k.key != "" {
		sp = append(append(sp, 0), k.key...)
	}
	shared := 0
	if len(b.tags)%restartEvery == 0 {
		b.restarts = append(b.restarts, uint32(len(b.data)))
	} else {
		shared = sharedPrefix(w.last, sp)
	}
	b.data = binary.AppendUvarint(b.data, uint64(shared))
	b.data = binary.AppendUvarint(b.data, uint64(len(sp)-shared))
	b.data = append(b.data, sp[shared:]...)
	w.last, w.buf = sp, w.last
	tag := tagOf(k.hash)
	b.tags = append(b.tags, tag)
	if len(b.tags) == 1<<w.blockShift {
		// The block is full and never written again: its data drops the
		// slack newBlock gave it, at one copy per block.
		b.data = slices.Clone(b.data)
	}
	w.slots[w.vacancy(tag)] = w.slot(tag, w.tail)
	w.tail++
}

// newBlock sizes a block's restarts and tags exactly and its data by the
// block before it, so a block is three allocations. A window's first block
// grows by append instead: a window that never fills one (a small shard, a
// test's) costs what it holds.
func (w *keyWindow) newBlock() keyBlock {
	if len(w.blocks) == 0 {
		return keyBlock{}
	}
	n, last := 1<<w.blockShift, len(w.blocks[len(w.blocks)-1].data)
	return keyBlock{
		data:     make([]byte, 0, last+last/8),
		restarts: make([]uint32, 0, (n+restartEvery-1)/restartEvery),
		tags:     make([]uint32, 0, n),
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
// key's home, one bucket per key the block holds, orders the block. The
// backward shift reads each slot it passes over's full tag from its block,
// for its home.
func (w *keyWindow) sweep() {
	b := &w.blocks[0]
	bucketBits := min(64-w.slotShift, w.blockShift)
	shift := 64 - w.slotShift - bucketBits // home>>shift is the home's bucket
	var counts [1<<maxBlockShift + 1]uint16
	var order [1 << maxBlockShift]uint16
	count := counts[:1<<bucketBits+1]
	for _, tag := range b.tags {
		count[w.home(tag)>>shift+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	for k, tag := range b.tags {
		c := &count[w.home(tag)>>shift]
		order[*c] = uint16(k)
		*c++
	}
	slots, blocks, mask := w.slots, w.blocks, uint64(len(w.slots)-1)
	base, seqMask, blockShift, slotShift := uint32(w.base), w.seqMask, w.blockShift, w.slotShift
	keyMask := uint32(1)<<blockShift - 1
	for _, k := range order[:len(b.tags)] {
		tag := b.tags[k]
		want := w.slot(tag, w.base+uint64(k))
		i := w.home(tag)
		for slots[i] != want {
			i = (i + 1) & mask
		}
		// Backward shift: each later slot of the chain moves into the hole
		// unless that would put it before its home, and the last hole
		// empties. home is w.home(w.tag(s)), on the locals above.
		for j := (i + 1) & mask; slots[j] != 0; j = (j + 1) & mask {
			s := slots[j]
			off := (s - base) & seqMask
			home := uint64(blocks[off>>blockShift].tags[off&keyMask]) * fibonacci >> slotShift
			if (j-home)&mask >= (j-i)&mask {
				slots[i] = s
				i = j
			}
		}
		slots[i] = 0
	}
	n := copy(w.blocks, w.blocks[1:])
	w.blocks[n] = keyBlock{}
	w.blocks = w.blocks[:n]
	w.base = w.head
}

// grow doubles the index and places again the slot of every key from base
// on, taking the keys' tags from their blocks in sequence order.
func (w *keyWindow) grow() {
	w.slots = make([]uint32, 2*len(w.slots))
	w.slotShift--
	seq := w.base
	for i := range w.blocks {
		for _, tag := range w.blocks[i].tags {
			w.slots[w.vacancy(tag)] = w.slot(tag, seq)
			seq++
		}
	}
}
