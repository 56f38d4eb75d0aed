package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Snapshot files are JSON documents named snapshot-<gen>.json, written
// atomically (temp + fsync + rename). A snapshot at generation G captures
// every shard's full state — accounts, windows, idempotency-key FIFO,
// outcome counters — consistent with that shard's WAL at the seq-G rotation
// boundary: recovery loads the snapshot and replays only segments with
// seq >= G. Floats round-trip exactly: Go marshals float64 with the
// shortest representation that parses back to the identical bits, so a
// recovered bill is byte-identical, not approximately equal.

// snapshotDoc is the on-disk snapshot document.
type snapshotDoc struct {
	Version   int    `json:"version"`
	Gen       uint64 `json:"gen"`
	TakenUnix int64  `json:"takenUnix"`
	Meta
	// ShardStates holds one entry per lock stripe, in shard order.
	ShardStates []shardSnapshot `json:"shardStates"`
}

type shardSnapshot struct {
	Accrued     uint64 `json:"accrued"`
	Duplicates  uint64 `json:"duplicates"`
	Dropped     uint64 `json:"dropped"`
	KeysEvicted uint64 `json:"keysEvicted"`
	// Keys is the idempotency-key FIFO in eviction order (namespaced
	// tenant\x00key strings), so recovery restores not just which keys
	// dedup but which ones age out next.
	Keys     []string            `json:"keys,omitempty"`
	Accounts map[string]*account `json:"accounts,omitempty"`
}

// clone deep-copies an account — the one copy between a shard's live state
// and a snapshot document, in either direction. The maps it returns are
// never nil, whatever a decoded document left out (omitempty drops empty
// maps, and a JSON null decodes to a nil account or window).
func (a *account) clone() *account {
	var c account
	if a != nil {
		c = *a
	}
	windows := c.Windows
	c.Windows = make(map[int]*window, len(windows))
	for widx, w := range windows {
		var cw window
		if w != nil {
			cw = *w
		}
		bills := cw.Bills
		cw.Bills = make(map[string]float64, len(bills))
		for pricer, v := range bills {
			cw.Bills[pricer] = v
		}
		c.Windows[widx] = &cw
	}
	return &c
}

// capture serialises the shard's state; callers hold mu.
//
//litmus:guarded-by caller holds sh.mu
func (sh *shard) capture() shardSnapshot {
	ss := shardSnapshot{
		Accrued:     sh.accrued,
		Duplicates:  sh.duplicates,
		Dropped:     sh.dropped,
		KeysEvicted: sh.keysEvicted,
		Keys:        append([]string(nil), sh.keyq...),
		Accounts:    make(map[string]*account, len(sh.accounts)),
	}
	for name, a := range sh.accounts {
		ss.Accounts[name] = a.clone()
	}
	return ss
}

// restoreFrom replaces the shard's state with a snapshot's; callers hold mu.
//
//litmus:guarded-by caller holds sh.mu
func (sh *shard) restoreFrom(ss shardSnapshot) {
	sh.accrued = ss.Accrued
	sh.duplicates = ss.Duplicates
	sh.dropped = ss.Dropped
	sh.keysEvicted = ss.KeysEvicted
	sh.keyq = append([]string(nil), ss.Keys...)
	sh.keys = make(map[string]struct{}, len(ss.Keys))
	for _, k := range ss.Keys {
		sh.keys[k] = struct{}{}
	}
	sh.accounts = make(map[string]*account, len(ss.Accounts))
	sh.names = sh.names[:0]
	for name, a := range ss.Accounts {
		sh.accounts[name] = a.clone()
		sh.names = append(sh.names, name)
	}
	sort.Strings(sh.names)
}

// parseSnapshot decodes one snapshot document and validates it against the
// ledger's shape; name labels errors (a file name, or the transfer source
// when the bytes arrived over replication).
func parseSnapshot(data []byte, name string, want Meta) (*snapshotDoc, error) {
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", name, err)
	}
	if doc.Version != 1 {
		return nil, fmt.Errorf("%s: unknown snapshot version %d", name, doc.Version)
	}
	if doc.Meta != want {
		return nil, want.mismatch(name, doc.Meta)
	}
	if len(doc.ShardStates) != want.Shards {
		return nil, fmt.Errorf("%s: snapshot holds %d shard states, its header says %d", name, len(doc.ShardStates), want.Shards)
	}
	return &doc, nil
}

// Snapshot compacts the durable store: it captures every shard's state,
// rotates every shard's WAL segment, and commits the capture atomically as
// snapshot-<gen>.json; superseded segments and snapshots are then deleted
// (kept with Config.Archive). Safe under concurrent accrual — each shard is
// captured and rotated under its own lock, so the snapshot plus each
// shard's post-rotation WAL tail is exactly that shard's full history.
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
	doc := snapshotDoc{
		Version:     1,
		Gen:         gen,
		TakenUnix:   time.Now().Unix(),
		Meta:        l.meta(),
		ShardStates: make([]shardSnapshot, len(l.shards)),
	}
	// covered[i] holds the segments shard i's rotation superseded. On any
	// failure after a rotation they are handed back to their walFile: the
	// shards keep appending to the new segments regardless, so the old ones
	// must stay in the tail — visible in WALBytes, re-collected by the next
	// successful snapshot — rather than leak until a restart's recovery.
	covered := make([][]string, len(l.shards))
	giveBack := func() {
		for i, paths := range covered {
			l.shards[i].wal.readdTail(paths)
		}
	}
	for i, sh := range l.shards {
		sh.mu.Lock()
		ss := sh.capture()
		// Rotating under the shard lock is the snapshot's consistency
		// point: the captured state and the segment boundary agree exactly.
		//litmus:sync-under-lock-ok snapshot consistency point; rotation must exclude appends on this shard
		old, err := sh.wal.rotate(gen)
		sh.mu.Unlock()
		if err != nil {
			giveBack()
			return fmt.Errorf("%w: %v", ErrDurability, err)
		}
		doc.ShardStates[i] = ss
		covered[i] = old
	}
	data, err := json.Marshal(&doc)
	if err != nil {
		giveBack()
		return fmt.Errorf("ledger: encoding snapshot: %w", err)
	}
	if err := writeFileAtomic(snapshotPath(d.dir, gen), data); err != nil {
		giveBack()
		return fmt.Errorf("%w: writing snapshot: %v", ErrDurability, err)
	}
	d.lastSnapGen.Store(gen)
	d.snapshots.Add(1)
	d.lastSnapUnix.Store(doc.TakenUnix)
	d.lastSnapBytes.Store(int64(len(data)))
	if !l.cfg.Archive {
		for _, paths := range covered {
			removeAll(paths)
		}
		if ls, err := ReadListing(d.dir); err == nil {
			for _, g := range ls.snapshots {
				if g < gen {
					_ = os.Remove(snapshotPath(d.dir, g))
				}
			}
		}
	}
	return nil
}
