package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"time"

	"repro/internal/jsonnum"
)

// Snapshot files are JSON documents named snapshot-<gen>.json, written
// atomically (temp + fsync + rename). A snapshot at generation G captures
// every shard's full state — accounts, windows, idempotency window,
// outcome counters — consistent with that shard's WAL at the seq-G rotation
// boundary: recovery loads the snapshot and replays only segments with
// seq >= G. Floats round-trip exactly: they are written in the shortest
// representation that parses back to the identical bits, so a recovered
// bill is byte-identical, not approximately equal.
//
// The document is read by reflection straight into live state (loadSnapshot:
// cold, once per start or bootstrap) and written by hand, accounts by name
// and windows by index (Snapshot: every SnapshotEvery accruals, beside live
// ingest). snapshotDoc, shardSnapshot and the account and window tags are the
// schema both sides follow; the writer tests hold the writer to a map-typed
// copy of it.

// snapshotHeader opens the document; the writer marshals it as declared, so
// Meta's fields are still typed in one place.
type snapshotHeader struct {
	Version   int    `json:"version"`
	Gen       uint64 `json:"gen"`
	TakenUnix int64  `json:"takenUnix"`
	Meta
}

// snapshotDoc is the on-disk snapshot document.
type snapshotDoc struct {
	snapshotHeader
	// ShardStates holds one entry per lock stripe, in shard order.
	ShardStates []shardSnapshot `json:"shardStates"`
}

type shardSnapshot struct {
	Accrued     uint64 `json:"accrued"`
	Duplicates  uint64 `json:"duplicates"`
	Dropped     uint64 `json:"dropped"`
	KeysEvicted uint64 `json:"keysEvicted"`
	// Keys is the idempotency window's key list, oldest first (keywindow.go
	// owns the spelling), so recovery restores not just which keys dedup but
	// which ones age out next.
	Keys     []string            `json:"keys,omitempty"`
	Accounts map[string]*account `json:"accounts,omitempty"`
}

// restoreFrom replaces the shard's state with a decoded snapshot's, adopting
// its accounts as loadSnapshot left them. Callers hold mu.
//
//litmus:guarded-by caller holds sh.mu
func (sh *shard) restoreFrom(ss shardSnapshot) {
	sh.accrued = ss.Accrued
	sh.duplicates = ss.Duplicates
	sh.dropped = ss.Dropped
	sh.dedup.restore(ss.Keys, ss.KeysEvicted)
	sh.accounts = ss.Accounts
	if sh.accounts == nil {
		sh.accounts = make(map[string]*account)
	}
	sh.names = slices.Sorted(maps.Keys(sh.accounts))
}

// loadSnapshot decodes one snapshot document, checks it against the ledger's
// shape and each account against the shard its name hashes to, restores it
// and returns its generation; a refused document changes nothing. name
// labels errors (a file name, or the transfer source when the bytes arrived
// over replication).
func (l *Ledger) loadSnapshot(data []byte, name string) (uint64, error) {
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", name, err)
	}
	if doc.Version != 1 {
		return 0, fmt.Errorf("%s: unknown snapshot version %d", name, doc.Version)
	}
	if want := l.meta(); doc.Meta != want {
		return 0, want.mismatch(name, doc.Meta)
	}
	if len(doc.ShardStates) != len(l.shards) {
		return 0, fmt.Errorf("%s: snapshot holds %d shard states, its header says %d", name, len(doc.ShardStates), len(l.shards))
	}
	// Refuse an account no ledger could have written: unnamed (accrual
	// requires a tenant), or in a shard its name does not hash to, where
	// lookups would miss it and an accrual would open a second. Fill in what
	// omitempty or a JSON null left out: an account, its windows, a window.
	for i, ss := range doc.ShardStates {
		for tenant, a := range ss.Accounts {
			if tenant == "" || l.shardIndex(tenant) != uint32(i) {
				return 0, fmt.Errorf("%s: shard %d, account %q: %w", name, i, tenant, errSnapshotAccount)
			}
			if a == nil {
				a = &account{}
				ss.Accounts[tenant] = a
			}
			if a.Windows == nil {
				a.Windows = make(map[int]*window)
			}
			for widx, w := range a.Windows {
				if w == nil {
					a.Windows[widx] = &window{}
				}
			}
		}
	}
	l.restore(doc.ShardStates)
	return doc.Gen, nil
}

// errSnapshotAccount marks an account loadSnapshot refuses.
var errSnapshotAccount = errors.New("account is unnamed or in a shard its name does not hash to")

// Snapshot compacts the durable store: it streams every shard's state into
// snapshot-<gen>.json.tmp, rotating each shard's WAL segment as it goes, and
// commits the file atomically (fsync + rename); superseded segments and
// snapshots are then deleted (kept with Config.Archive). Safe under
// concurrent accrual — each shard is encoded and rotated under its own
// lock, so the snapshot plus each shard's post-rotation WAL tail is exactly
// that shard's full history. Nothing is copied first: counters and accounts
// are encoded straight from live state under the shard lock, and the key
// FIFO, the bulk of the document, is written after the lock is released.
// Returns an error on a volatile ledger.
func (l *Ledger) Snapshot() error {
	d := l.dur
	if d == nil {
		return fmt.Errorf("ledger: Snapshot on a volatile ledger (no Config.Dir)")
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if d.closed.Load() {
		return fmt.Errorf("ledger: Snapshot after Close")
	}

	// Reserve the generation up front: if this attempt fails after some
	// shards have already rotated to gen, the retry must not reuse it —
	// rotating a shard onto a seq it already occupies would collide, and
	// recovery handles a sparse seq history fine (it replays everything
	// >= the last committed snapshot).
	gen := d.gen + 1
	d.gen = gen
	// Reset the accrual counter per *attempt*, not per success: a failing
	// disk would otherwise see the snapshotter re-nudged (and every shard
	// re-rotated onto a fresh segment) on each subsequent accrual, instead
	// of once per SnapshotEvery.
	d.sinceSnap.Store(0)

	takenUnix := time.Now().Unix()
	w := &d.snapW
	w.buf, w.n, w.err = w.buf[:0], 0, nil
	err := writeAtomic(snapshotPath(d.dir, gen), func(f io.Writer) error {
		w.w = f
		if d.snapSink != nil {
			w.w = d.snapSink(f)
		}
		return l.streamSnapshot(w, gen, takenUnix)
	})
	if err != nil {
		if errors.Is(err, errSnapshotValue) {
			return fmt.Errorf("ledger: encoding snapshot: %w", err)
		}
		return fmt.Errorf("%w: writing snapshot: %v", ErrDurability, err)
	}
	d.lastSnapGen.Store(gen)
	d.snapshots.Add(1)
	d.lastSnapUnix.Store(takenUnix)
	d.lastSnapBytes.Store(w.n)
	if ls, err := ReadListing(d.dir); err == nil {
		d.collect(ls, gen)
	}
	return nil
}

// streamSnapshot writes the version-1 document for generation gen through w,
// shard by shard, rotating each shard's segment onto gen. A shard is locked
// only while its counters and accounts are encoded and its segment rotated;
// its keys and every write happen outside the lock.
func (l *Ledger) streamSnapshot(w *snapshotWriter, gen uint64, takenUnix int64) error {
	head, err := json.Marshal(snapshotHeader{Version: 1, Gen: gen, TakenUnix: takenUnix, Meta: l.meta()})
	if err != nil {
		return err
	}
	w.buf = append(w.buf, head[:len(head)-1]...) // reopened: shardStates follows
	w.raw(`,"shardStates":[`)
	for i, sh := range l.shards {
		if i > 0 {
			w.raw(",")
		}
		sh.mu.Lock()
		sh.encode(w)
		// Not a copy: snapshotView's contract is that the keys can be read
		// after the lock is released.
		keys := sh.dedup.snapshotView()
		// Rotating under the shard lock is the snapshot's consistency
		// point: the encoded state and the segment boundary agree exactly.
		//litmus:sync-under-lock-ok snapshot consistency point; rotation must exclude appends on this shard
		err := sh.wal.rotate(gen)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		if keys.len() > 0 {
			w.raw(`,"keys":[`)
			first := true
			for k := range keys.all() {
				if !first {
					w.raw(",")
				}
				first = false
				w.buf = appendJSONString(w.buf, k)
				if len(w.buf) >= maxSnapshotWrite {
					w.flush()
				}
			}
			w.raw("]")
		}
		w.raw("}")
		if w.flush(); w.err != nil {
			return w.err
		}
	}
	w.raw("]}")
	w.flush()
	return w.err
}

// encode appends the shard's counters and accounts — everything but the key
// FIFO, and without the closing brace — as the head of a shardSnapshot
// object. Callers hold mu; this is the snapshot's whole hold on ingest, so
// it walks the live state once, accounts by name and windows by index, and
// allocates nothing once the writer's window scratch has grown.
//
//litmus:guarded-by caller holds sh.mu
func (sh *shard) encode(w *snapshotWriter) {
	w.raw(`{"accrued":`)
	w.uint(sh.accrued)
	w.raw(`,"duplicates":`)
	w.uint(sh.duplicates)
	w.raw(`,"dropped":`)
	w.uint(sh.dropped)
	w.raw(`,"keysEvicted":`)
	w.uint(sh.dedup.evicted())
	if len(sh.accounts) == 0 {
		return
	}
	w.raw(`,"accounts":{`)
	for i, name := range sh.names {
		if i > 0 {
			w.raw(",")
		}
		a := sh.accounts[name]
		w.str(name)
		w.raw(`:{"invocations":`)
		w.int(a.Invocations)
		w.raw(`,"commercial":`)
		w.float(a.Commercial)
		w.raw(`,"billed":`)
		w.float(a.Billed)
		if len(a.Windows) > 0 {
			w.raw(`,"windows":{`)
			idxs := w.windows[:0]
			for widx := range a.Windows {
				idxs = append(idxs, widx)
			}
			slices.Sort(idxs)
			w.windows = idxs
			for j, widx := range idxs {
				if j > 0 {
					w.raw(",")
				}
				win := a.Windows[widx]
				w.raw(`"`)
				w.int(int64(widx))
				w.raw(`":{"invocations":`)
				w.int(win.Invocations)
				w.raw(`,"commercial":`)
				w.float(win.Commercial)
				w.raw(`,"billed":`)
				w.float(win.Billed)
				if len(win.Bills) > 0 {
					w.raw(`,"bills":{`)
					for i, b := range win.Bills {
						if i > 0 {
							w.raw(",")
						}
						w.str(b.Pricer)
						w.raw(":")
						w.float(b.Billed)
					}
					w.raw("}")
				}
				w.raw("}")
			}
			w.raw("}")
		}
		w.raw("}")
	}
	w.raw("}")
}

// maxSnapshotWrite bounds one write(2) of the snapshot stream.
const maxSnapshotWrite = 1 << 20

// errSnapshotValue marks a value JSON cannot carry (a total that overflowed
// to +Inf): the attempt fails, as json.Marshal's did, rather than commit a
// document recovery cannot parse.
var errSnapshotValue = errors.New("unsupported value")

// snapshotWriter is the hand-written JSON appender behind Snapshot: values
// go onto one reused buffer, flush hands it to the file in bounded writes,
// and the first failure sticks.
type snapshotWriter struct {
	w   io.Writer
	buf []byte
	n   int64 // bytes written
	err error
	// windows is encode's scratch: one account's window indexes, in order.
	windows []int
}

func (w *snapshotWriter) raw(s string)  { w.buf = append(w.buf, s...) }
func (w *snapshotWriter) int(v int64)   { w.buf = strconv.AppendInt(w.buf, v, 10) }
func (w *snapshotWriter) uint(v uint64) { w.buf = strconv.AppendUint(w.buf, v, 10) }

// float writes f as encoding/json does; a value JSON cannot carry fails the
// document instead.
func (w *snapshotWriter) float(f float64) {
	if !jsonnum.Finite(f) {
		if w.err == nil {
			w.err = fmt.Errorf("%w %v", errSnapshotValue, f)
		}
		f = 0
	}
	w.buf = jsonnum.AppendFloat(w.buf, f)
}

func (w *snapshotWriter) str(s string) { w.buf = appendJSONString(w.buf, s) }

// appendJSONString appends s as a JSON string: quote, backslash and control
// bytes escaped (every window key holds a \x00), everything else verbatim.
// Ill-formed UTF-8, which only a log written before validateEntry refused it
// can hold, passes through and decodes to U+FFFD, as it did when
// json.Marshal wrote the replacement itself. It takes the window's keys as
// the bytes their blocks hold, so writing one converts nothing.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[start:i]...)
		if c >= 0x20 {
			b = append(b, '\\', c)
		} else {
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// flush writes the buffer out in writes of at most maxSnapshotWrite bytes
// and empties it; after a failure it only empties it.
func (w *snapshotWriter) flush() {
	for p := w.buf; len(p) > 0 && w.err == nil; {
		n, err := w.w.Write(p[:min(len(p), maxSnapshotWrite)])
		w.n += int64(n)
		p = p[n:]
		w.err = err
	}
	w.buf = w.buf[:0]
}
