package api

import (
	"strconv"
	"strings"
)

// keyChunkBytes is the size of one KeyArena chunk. It holds several hundred
// keys of a typical length, so a stream's keys cost an allocation or two
// instead of one each.
const keyChunkBytes = 8 << 10

// derivedSuffixBytes bounds what writeDerivedKey appends after the stream
// key: '#' and at most 20 bytes of a decimal int64.
const derivedSuffixBytes = 1 + 20

// KeyArena is where the ingest path makes its idempotency-key strings: the
// explicit keys both record decoders read, the keys the node derives for
// keyless records, and the ones the router's scatter derives before it
// partitions. A key is a substring of a shared chunk, so a chunk costs one
// allocation instead of one per key. The chunk is a strings.Builder grown
// once to keyChunkBytes: String() hands out its buffer without copying and
// the builder only ever appends, so a key already handed out is never
// rewritten. A key that does not fit starts a fresh chunk; one longer than a
// chunk gets a chunk of its own.
//
// A key pins its whole chunk, so the arena serves only keys nothing keeps
// past billing: the ledger copies a key into its idempotency window and its
// WAL buffer, the collector's pending set is cleared at every flush, and the
// router only encodes the key onto the forwarded body. A new site that keeps
// a key must copy it.
//
// The zero KeyArena is ready to use; it must not be copied once used.
type KeyArena struct {
	b strings.Builder
}

// Derived returns DerivedKey(streamKey, line), carved from the arena.
func (a *KeyArena) Derived(streamKey string, line int) string {
	start := a.reserve(len(streamKey) + derivedSuffixBytes)
	writeDerivedKey(&a.b, streamKey, line)
	return a.b.String()[start:]
}

// key returns b as a string carved from the arena.
func (a *KeyArena) key(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	start := a.reserve(len(b))
	a.b.Write(b)
	return a.b.String()[start:]
}

// reserve makes room for n more bytes in the current chunk, starting a fresh
// chunk when they do not fit, and returns the offset they will start at.
func (a *KeyArena) reserve(n int) int {
	if a.b.Cap()-a.b.Len() < n {
		a.b = strings.Builder{}
		a.b.Grow(max(n, keyChunkBytes))
	}
	return a.b.Len()
}

// DerivedKey is the idempotency key a keyless record inherits from its
// stream's Idempotency-Key: the stream key plus the record's 1-based
// PHYSICAL position (blank NDJSON lines counted; frame n is line n), so
// replaying the whole stream under the same key is a no-op. It and
// KeyArena.Derived — the node's and the router's — are the only places one
// is made, and both spell it with writeDerivedKey: two spellings that
// drifted apart would double-bill.
func DerivedKey(streamKey string, line int) string {
	var b strings.Builder
	b.Grow(len(streamKey) + derivedSuffixBytes)
	writeDerivedKey(&b, streamKey, line)
	return b.String()
}

// writeDerivedKey appends the one spelling of a derived key to b.
func writeDerivedKey(b *strings.Builder, streamKey string, line int) {
	var digits [20]byte
	b.WriteString(streamKey)
	b.WriteByte('#')
	b.Write(strconv.AppendInt(digits[:0], int64(line), 10))
}
