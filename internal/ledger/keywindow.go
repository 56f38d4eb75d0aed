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
// restart point that shares nothing, and a []uint32 of restart offsets.
// There are no pointers, so the GC never scans a key, and a block that has
// filled up is never written again. Membership is one open-addressed index
// of 4-byte slots, each three fields: the top bits of the key's hash, its
// partial tag (the lowest of them forced set, so a slot is never 0); the
// key's displacement from its home slot, in dispBits bits; and the low S
// bits of its sequence number, which name one key because 2^S is above the
// most keys the index can hold. A displacement too long for its field is
// kept exactly in a side map, far, keyed by the sequence bits. The index is
// sized once, when the window is made (or restored from a list longer than
// its budget), to hold the budget and a sweep's worth of lingering keys —
// one block, or a sixteenth of a budget over 64 Ki keys — at most ¾ full;
// a key's home is its hash's low 32 bits reduced to the index's length by
// a multiply and a shift. Probing is linear, and the slots of a chain lie
// in order of home (Robin Hood order): a key's slot goes after every slot
// whose home is at or before its own, and the slots after it move one on. As every slot carries its own home, no home is ever derived
// again, and nothing keeps a key's hash: a probe compares each slot with
// what the key's would be at that distance from its home — partial tag and
// displacement — and stops at an empty slot or one nearer its home than the
// key would be. Only for a live key whose slot matches, a duplicate or
// about one slot in 2^(T−1) of those a probe passes at the key's own home
// for a tag of T bits, does it decode the spelling, walking at most 16 keys
// from a restart point into a buffer the window owns. The window also keeps
// its newest key's spelling, which the next key's shared prefix is measured
// against.
//
// Forgetting is lazy. Forgetting the oldest key only advances the head
// sequence number; its slot lingers, and a probe that meets a lingering
// slot takes it for absent by one subtraction, before decoding any
// spelling. When a sweep's worth of keys are forgotten, one sweep walks the
// index once, from an empty slot round to it, testing each slot, and at
// each forgotten one empties it and shifts the slots after it back: each to
// the first free slot at or after its home, which its displacement names,
// until one stays where it is. It reads no block and no spelling, and no key
// is forgotten by a random probe of its own; then it drops the forgotten
// keys' blocks. The index holds the live keys and at most a sweep's worth of
// lingering slots, under ¾ of it, so every probe chain ends. The lingering
// keys' blocks stay too, so a view of the remembered keys starts at the
// block that holds the oldest of them, not at the first block.
//
// A batch's probe pass (Ledger.probe) first loads the home slots of a
// chunk's keys back to back with touch, under the shard lock, so their cache
// misses overlap; then, per record, seen decides Duplicate and record checks,
// evicts and inserts, both walking a chain already in cache. A key costs its
// suffix's bytes plus 2 B of lengths, ¼ B of restart offset and its share of
// the index: 4 B of slot over a load of at most ¾, 5.7 B at one serving
// shard's 64 Ki-key budget. In time it costs one probe into the index, the
// slots its insert moves on, and its share of a sweep, which reads the
// index's slots in order, about 23 per forgotten key at any budget from
// 64 Ki keys up — where a set of joined strings with a FIFO beside it cost
// a 48 B string allocation, a map slot and a FIFO entry, and one
// allocation per keyed record. A block's data is sized by the block before it and, once
// full, cloned to its length. Derived keys (a stream key, '#', a line
// number) share most of their spelling with the key before them, so a
// key's suffix is a few bytes of its line number.

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

// keyBlock holds up to a window's block size of keys, oldest first,
// front-coded. Its offsets are 32-bit because a block's last restart point
// sits below 4 GiB: a key is bounded by one WAL frame (1 MiB) and a block
// holds at most 1<<maxBlockShift of them.
type keyBlock struct {
	// data is key i as uvarint(bytes shared with key i−1), uvarint(bytes
	// not shared), the bytes not shared; a restart point shares nothing.
	data     []byte
	restarts []uint32 // restarts[r] is the offset of key r*restartEvery
	n        int      // the keys the block holds
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
	// maxBlockShift caps a block at 4096 keys, so its two allocations cost
	// a keyed record under a thousandth of one; a smaller budget gets
	// blocks of the next power of two at or above it.
	maxBlockShift = 12
	// restartEvery is how many keys lie between restart points: decoding
	// a key walks at most this many.
	restartEvery = 16
	// dispBits is the width of a slot's displacement field. A field holds
	// a displacement below farDisp; farDisp itself says the displacement is
	// in the window's far map. In Robin Hood order at the index's load of
	// ¾, a serving shard's slots were measured 1.55 slots from home on
	// average and 19 at most, so far holds what only colliding hashes
	// build.
	dispBits = 5
	farDisp  = 1<<dispBits - 1
	// maxBudget keeps a slot's sequence bits, which must count past a
	// budget and a sweep's worth of lingering keys, at 26 or fewer, so at
	// least one bit of tag is left above them and the displacement. A
	// window of it holds about 540 MB of derived keys; New clamps a larger
	// slice to it (Config.MaxKeys), and restore keeps the newest maxBudget
	// entries of a longer list, which only a build with a higher clamp
	// writes.
	maxBudget = 1 << 25
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
	// 1<<sweepShift forgotten keys linger before a sweep forgets them for
	// good: the power of two at or above a sixteenth of the budget, or one
	// block if that is more, so that a sweep's pass over the index costs a
	// forgotten key about the same number of slot reads at any budget.
	sweepShift uint
	// slots is the membership index: a key's partial tag over its
	// displacement from home over its sequence number's bits under seqMask;
	// 0 for empty. It holds one slot per key from base on, forgotten ones
	// included, and is never more than ¾ full.
	slots []uint32
	// seqMask is 2^S−1 for a slot's S sequence bits: 2^S exceeds the most
	// keys the index holds, a budget (or a longer restored list) and a
	// sweep's worth of lingering ones, so a forgotten key's distance from
	// head wraps past every live key's, and the bits name one slot.
	seqMask uint32
	// far maps the sequence bits of each slot whose displacement field
	// holds farDisp to its displacement.
	far map[uint32]uint32
	// last is the newest key's spelling; buf is where seen decodes a
	// spelling and insert builds one.
	last, buf []byte
}

// shardBudget is one shard's slice of a budget of maxKeys over shards: the
// ceiling of their quotient, computed so that no budget overflows it, kept
// from 1 to maxBudget.
func shardBudget(maxKeys, shards int) int {
	return min(max(maxKeys/shards+min(maxKeys%shards, 1), 1), maxBudget)
}

// newKeyWindow returns an empty window for a budget from 1 to maxBudget,
// its index made.
func newKeyWindow(budget int) keyWindow {
	w := keyWindow{budget: budget}
	w.blockShift = uint(min(bits.Len(uint(budget-1)), maxBlockShift))
	w.sweepShift = uint(max(int(w.blockShift), bits.Len(uint(budget-1))-4))
	w.size(budget)
	return w
}

// size gives the window an empty index for up to n live keys beside a
// sweep's worth of lingering ones, at most ¾ full, and the sequence mask
// that tells them apart. It reuses the index it has when that is the length
// wanted.
func (w *keyWindow) size(n int) {
	held := n + 1<<w.sweepShift
	w.seqMask = seqMaskFor(held)
	if slots := held + (held+2)/3; len(w.slots) == slots {
		clear(w.slots)
	} else {
		w.slots = make([]uint32, slots)
	}
	w.far = nil
}

// seqMaskFor is the sequence mask of an index that holds up to held keys:
// its 2^S exceeds held.
func seqMaskFor(held int) uint32 { return 1<<bits.Len(uint(held)) - 1 }

// touch loads the home slot of each key keys[i], i in idx, and returns the
// loaded words folded together, for the caller to keep where the compiler
// cannot drop the loads. No load depends on another, so their cache misses
// overlap, where the walks that follow would each stall on their own.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) touch(keys *[probeChunk]windowKey, idx []uint8) uint64 {
	var sum uint64
	for _, i := range idx {
		sum ^= uint64(w.slots[w.home(keys[i].hash)])
	}
	return sum
}

// seen reports whether k is remembered, walking k's probe chain from its
// home: a slot holding k's partial tag at k's distance from home is k if
// its key is still remembered and its spelling is k's. Slots lie in order
// of home, so the walk ends at an empty slot or at one nearer its home than
// k would be. A key without a name is never found, and an evicted key is
// not, exactly as record would take it again.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) seen(k windowKey) bool {
	if k.hash == 0 {
		return false
	}
	slots, seqMask := w.slots, w.seqMask
	step := seqMask + 1 // one more displacement
	far := farDisp * step
	// want is the slot k would be at i, its sequence bits aside.
	want, head, live := w.partial(k.hash), uint32(w.head), uint32(w.len())
	for i := w.home(k.hash); ; {
		s := slots[i]
		if s == 0 || s&far < want&far {
			return false
		}
		// A forgotten key's slot lingers until the next sweep; its
		// distance from head wraps past every live key's.
		if s&^seqMask == want && (s-head)&seqMask < live && k.spells(w.decode(s)) {
			return true
		}
		if want&far != far {
			want += step
		}
		if i++; i == len(slots) {
			i = 0
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
// the budget is trimmed by the next record, and until then the index is
// sized for the list. Only a list longer than maxBudget, which no window
// of this build writes, loses its oldest entries here, counted as
// forgotten.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) restore(keys []string, evicted uint64) {
	if over := len(keys) - maxBudget; over > 0 {
		keys, evicted = keys[over:], evicted+uint64(over)
	}
	*w = keyWindow{budget: w.budget, blockShift: w.blockShift, sweepShift: w.sweepShift, slots: w.slots}
	w.size(max(w.budget, len(keys)))
	w.head, w.tail, w.base = evicted, evicted, evicted
	for _, s := range keys {
		if k := listedKey(s); !w.seen(k) {
			w.insert(k)
		}
	}
}

// keyView is the remembered keys, oldest first, as snapshotView took them.
type keyView struct {
	blocks []keyBlock // copies of the headers of the blocks holding them
	first  int        // the oldest key's index in blocks[0], below its n
}

// snapshotView returns the remembered keys as a view the caller may keep
// reading after it releases the shard lock — the snapshot writes it, the
// bulk of its document, beside live ingest. Forgotten keys linger in the
// blocks for up to a sweep's worth, several blocks in a window over 64 Ki
// keys, so the view starts at the block holding head. Reading it later is
// safe because no byte a view holds is ever rewritten: the view copies the
// block headers, each cut at the keys its block held; record appends past
// those lengths (or to a fresh array, which leaves the old one as it was —
// as does the clone a full block's data moves to) and to new blocks, and a
// view decodes into a buffer of its own, never the window's last or buf;
// eviction only moves head, and its sweep writes the index alone and lets
// go of blocks; restore starts fresh blocks. Whoever changes the representation owes
// this method a copy or the same guarantee (keywindow_test.go holds it to
// that under -race).
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) snapshotView() keyView {
	gone := int(w.head - w.base)
	return keyView{blocks: slices.Clone(w.blocks[gone>>w.blockShift:]), first: gone & (1<<w.blockShift - 1)}
}

// len is the number of keys the view holds.
func (v keyView) len() int {
	n := -v.first
	for i := range v.blocks {
		n += v.blocks[i].n
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
			if j < b.n {
				off = int(b.restarts[j/restartEvery])
			}
			for ; j < b.n; j++ {
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

// bytes is what the window holds its keys in: each block's data and
// restarts by capacity, the index, and the far map at 16 B an entry, about
// what a Go map spends on a pair of uint32s. It is Stats' KeyBytes,
// /healthz idempotencyKeyBytes.
//
//litmus:guarded-by caller holds sh.mu
func (w *keyWindow) bytes() int {
	n := 4*len(w.slots) + 16*len(w.far)
	for i := range w.blocks {
		b := &w.blocks[i]
		n += cap(b.data) + 4*cap(b.restarts)
	}
	return n
}

// home is the slot a key with this hash probes first: the hash's low 32
// bits, times the index's length, over 2³².
func (w *keyWindow) home(hash uint64) int {
	return int(uint64(uint32(hash)) * uint64(len(w.slots)) >> 32)
}

// partial is what a slot keeps of a key's hash, its partial tag: the bits
// above the sequence bits and the displacement, the lowest of them set so
// that no slot is 0.
func (w *keyWindow) partial(hash uint64) uint32 {
	low := (w.seqMask + 1) << dispBits
	return (uint32(hash>>32) | low) &^ (low - 1)
}

// offset is the distance from base of the key whose slot is s.
func (w *keyWindow) offset(s uint32) uint32 { return (s - uint32(w.base)) & w.seqMask }

// decode returns the spelling of the key whose slot is s, decoded into the
// window's buffer: valid until the next decode or insert.
func (w *keyWindow) decode(s uint32) []byte {
	off := w.offset(s)
	w.buf = w.blocks[off>>w.blockShift].decode(w.buf, int(off&(1<<w.blockShift-1)))
	return w.buf
}

// insert appends k, which seen found absent, as the newest key. Its slot
// goes where seen's walk for it ended, after every slot whose home is at
// or before k's, and the rest of that chain moves one slot on.
func (w *keyWindow) insert(k windowKey) {
	if w.tail-w.base == uint64(len(w.blocks))<<w.blockShift {
		w.blocks = append(w.blocks, w.newBlock())
	}
	b := &w.blocks[len(w.blocks)-1]
	sp := append(w.buf[:0], k.tenant...)
	if k.key != "" {
		sp = append(append(sp, 0), k.key...)
	}
	shared := 0
	if b.n%restartEvery == 0 {
		b.restarts = append(b.restarts, uint32(len(b.data)))
	} else {
		shared = sharedPrefix(w.last, sp)
	}
	b.data = binary.AppendUvarint(b.data, uint64(shared))
	b.data = binary.AppendUvarint(b.data, uint64(len(sp)-shared))
	b.data = append(b.data, sp[shared:]...)
	w.last, w.buf = sp, w.last
	if b.n++; b.n == 1<<w.blockShift {
		// The block is full and never written again: its data drops the
		// slack newBlock gave it, at one copy per block.
		b.data = slices.Clone(b.data)
	}
	seq := uint32(w.tail) & w.seqMask
	w.tail++
	i, d := w.home(k.hash), uint32(0)
	for s := w.slots[i]; s != 0 && w.disp(s, d) >= d; s = w.slots[i] {
		if i++; i == len(w.slots) {
			i = 0
		}
		d++
	}
	if w.slots[i] != 0 {
		w.shiftOn(i)
	}
	w.place(i, w.partial(k.hash)|seq, d)
}

// disp is the displacement of the slot s, exact where it is below d or d
// is below farDisp: what insert's walk compares.
func (w *keyWindow) disp(s, d uint32) uint32 {
	f := s >> bits.Len32(w.seqMask) & farDisp
	if f == farDisp && d >= farDisp {
		return w.far[s&w.seqMask]
	}
	return f
}

// place writes slot i as s, whose displacement field is empty, at
// displacement d from its home: in the field, or from farDisp on in far.
func (w *keyWindow) place(i int, s, d uint32) {
	if d >= farDisp {
		w.keepFar(s&w.seqMask, d)
		d = farDisp
	}
	w.slots[i] = s | d*(w.seqMask+1)
}

// keepFar records d as the displacement of the slot with sequence bits seq.
func (w *keyWindow) keepFar(seq, d uint32) {
	if w.far == nil {
		w.far = make(map[uint32]uint32)
	}
	w.far[seq] = d
}

// shiftOn moves the slots from i to the first empty slot after it one slot
// on, each one farther from its home.
func (w *keyWindow) shiftOn(i int) {
	slots, n, seqMask := w.slots, len(w.slots), w.seqMask
	step := seqMask + 1
	far, near := farDisp*step, (farDisp-1)*step
	e := i
	for slots[e] != 0 {
		if e++; e == n {
			e = 0
		}
	}
	for e != i {
		prev := e - 1
		if e == 0 {
			prev = n - 1
		}
		s := slots[prev]
		if f := s & far; f == far {
			w.far[s&seqMask]++
		} else if s += step; f == near {
			w.keepFar(s&seqMask, farDisp)
		}
		slots[e], e = s, prev
	}
}

// newBlock sizes a block's restarts exactly and its data by the block
// before it, so a block is two allocations. A window's first block grows by
// append instead: a window that never fills one (a small shard, a test's)
// costs what it holds.
func (w *keyWindow) newBlock() keyBlock {
	if len(w.blocks) == 0 {
		return keyBlock{}
	}
	n, last := 1<<w.blockShift, len(w.blocks[len(w.blocks)-1].data)
	return keyBlock{
		data:     make([]byte, 0, last+last/8),
		restarts: make([]uint32, 0, (n+restartEvery-1)/restartEvery),
	}
}

// evictOldest forgets the oldest key by moving head past it. Its slot
// lingers until a sweep's worth of keys from base on are forgotten, and
// then sweep goes.
func (w *keyWindow) evictOldest() {
	w.head++
	if w.head-w.base == 1<<w.sweepShift {
		w.sweep()
	}
}

// sweep deletes the slots of the keys from base to head, all of them
// forgotten, and drops their blocks, in one pass over the index from past
// an empty slot round to it, so no chain runs across the pass's ends. Until
// the pass meets a forgotten slot there is nothing to move, and it only
// tests each slot; from there compact moves the chain's later slots back
// into the holes.
func (w *keyWindow) sweep() {
	slots, n := w.slots, len(w.slots)
	base, seqMask, gone := uint32(w.base), w.seqMask, uint32(1)<<w.sweepShift
	i := slices.Index(slots, 0) + 1 // the slot the pass is at
	for left := n; left > 0; {      // the slots the pass has still to pass
		if i == n {
			i = 0
		}
		end := min(n, i+left)
		j := i
		for j < end && (slots[j]-base)&seqMask >= gone {
			j++
		}
		left -= j - i
		switch {
		case j == end:
			i = j
		case slots[j] == 0: // an empty slot whose zero bits look forgotten
			i, left = j+1, left-1
		default:
			passed := w.compact(j)
			left -= passed
			if i = j + passed; i > n {
				i -= n
			}
		}
	}
	m := copy(w.blocks, w.blocks[1<<(w.sweepShift-w.blockShift):])
	clear(w.blocks[m:])
	w.blocks = w.blocks[:m]
	w.base = w.head
}

// compact empties the forgotten slots in the chain from i, one of them,
// and moves every other slot after i back to the first free slot at
// or after its home — its displacement names the home — its displacement
// shrinking by as much: a backward shift, reading no block. Slots lie in
// order of home, so it stops at the first slot that stays where it is, or
// the empty one that ends the chain, and returns how many slots it passed.
func (w *keyWindow) compact(i int) int {
	slots, n := w.slots, len(w.slots)
	base, seqMask, gone := uint32(w.base), w.seqMask, uint32(1)<<w.sweepShift
	shift := uint(bits.Len32(seqMask))
	// Positions count from i, and position c is slot i+c mod n. free is
	// the first position a moved slot may take.
	at := func(c int) int {
		if c += i; c >= n {
			c -= n
		}
		return c
	}
	free := 0
	for c := 0; ; c++ {
		j := at(c)
		s := slots[j]
		if s == 0 {
			return c + 1
		}
		f := s >> shift & farDisp
		if (s-base)&seqMask < gone {
			slots[j] = 0
			if f == farDisp {
				delete(w.far, s&seqMask)
			}
			continue
		}
		d := f
		if f == farDisp {
			d = w.far[s&seqMask]
		}
		home := c - int(d)
		to := max(home, free)
		if to == c {
			return c + 1
		}
		if f == farDisp && to-home < farDisp {
			delete(w.far, s&seqMask)
		}
		slots[j] = 0
		w.place(at(to), s&^(farDisp<<shift), uint32(to-home))
		free = to + 1
	}
}
