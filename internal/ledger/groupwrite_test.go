package ledger

// Tests for the WAL's group write: records are framed onto a shard's pending
// buffer under its lock and reach the segment in one write(2) per shard per
// commit. What is pinned here is what an acknowledgement still means — the
// bytes are in the file, and fsynced under FsyncAlways, before any result is
// returned — and what a failed write leaves behind.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// tenantsOnShards returns one tenant name per shard of l, in shard order.
func tenantsOnShards(l *Ledger) []string {
	names := make([]string, len(l.shards))
	for found, i := 0, 0; found < len(names); i++ {
		name := fmt.Sprintf("tenant-%d", i)
		for si, sh := range l.shards {
			if l.shardFor(name) == sh && names[si] == "" {
				names[si] = name
				found++
			}
		}
	}
	return names
}

// walWrites sums the write(2) calls the ledger's WAL files have issued.
func walWrites(l *Ledger) uint64 {
	var n uint64
	for _, w := range l.dur.wals {
		w.mu.Lock()
		n += w.writes
		w.mu.Unlock()
	}
	return n
}

// assertSameState fails unless got holds exactly want's state: every
// shard's accounts and windows, key FIFO in eviction order, key set and
// outcome counters, and the tenant-cap occupancy.
func assertSameState(t *testing.T, got, want *Ledger) {
	t.Helper()
	if len(got.shards) != len(want.shards) {
		t.Fatalf("%d shards, want %d", len(got.shards), len(want.shards))
	}
	if g, w := got.tenants.Load(), want.tenants.Load(); g != w {
		t.Errorf("tenant occupancy %d, want %d", g, w)
	}
	for i := range got.shards {
		g, w := got.shards[i], want.shards[i]
		g.mu.Lock()
		w.mu.Lock()
		if !reflect.DeepEqual(g.accounts, w.accounts) {
			t.Errorf("shard %d: accounts differ:\n got %s\nwant %s", i, dumpAccounts(g.accounts), dumpAccounts(w.accounts))
		}
		if !slices.Equal(g.names, w.names) {
			t.Errorf("shard %d: names %q, want %q", i, g.names, w.names)
		}
		assertSameWindow(t, fmt.Sprintf("shard %d", i), &g.dedup, &w.dedup)
		if g.accrued != w.accrued || g.duplicates != w.duplicates || g.dropped != w.dropped {
			t.Errorf("shard %d: counters %d/%d/%d, want %d/%d/%d", i,
				g.accrued, g.duplicates, g.dropped, w.accrued, w.duplicates, w.dropped)
		}
		w.mu.Unlock()
		g.mu.Unlock()
	}
}

func dumpAccounts(m map[string]*account) string {
	var b strings.Builder
	for name, a := range m {
		fmt.Fprintf(&b, "%q:{%d %v %v", name, a.Invocations, a.Commercial, a.Billed)
		for widx, w := range a.Windows {
			fmt.Fprintf(&b, " %d:{%d %v %v %v}", widx, w.Invocations, w.Commercial, w.Billed, w.Bills)
		}
		b.WriteString("} ")
	}
	return b.String()
}

// TestAcknowledgedMeansWritten pins the write side of an acknowledgement with
// no fsync to hide behind (FsyncNever): when Accrue or AccrueBatch returns,
// the segment files already hold every record's bytes, Accrue cost one
// write(2), and a batch cost one per shard it touched — not one per record.
func TestAcknowledgedMeansWritten(t *testing.T) {
	dir := t.TempDir()
	l := mustNew(t, Config{Dir: dir, Shards: 4, Fsync: FsyncNever, SnapshotEvery: -1})
	defer mustClose(t, l)
	names := tenantsOnShards(l)
	want := make([]int64, len(names)) // expected segment bytes per shard
	frameLen := func(e Entry, o Outcome) int64 {
		return int64(len(AppendWALRecord(nil, WALRecord{Entry: e, Outcome: o})))
	}
	checkFiles := func(when string) {
		t.Helper()
		for si, w := range l.dur.wals {
			info, err := os.Stat(segmentPath(dir, si, 0))
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != want[si] {
				t.Errorf("%s: shard %d segment holds %d bytes, want %d", when, si, info.Size(), want[si])
			}
			w.mu.Lock()
			if len(w.buf) != 0 || w.written != w.appended {
				t.Errorf("%s: shard %d: %d bytes pending, written %d of %d appended", when, si, len(w.buf), w.written, w.appended)
			}
			w.mu.Unlock()
		}
	}

	for i := 0; i < 3; i++ {
		e := Entry{Tenant: names[1], Pricer: "litmus", Minute: i, Commercial: 2, Price: 1, Key: fmt.Sprintf("solo-%d", i)}
		before := walWrites(l)
		accrue(t, l, e)
		if got := walWrites(l) - before; got != 1 {
			t.Fatalf("Accrue issued %d writes, want exactly 1", got)
		}
		want[1] += frameLen(e, Accrued)
		checkFiles("after Accrue")
	}

	// 64 entries round-robin over three of the four shards, one of them
	// invalid (never framed) and one a duplicate (framed with its outcome).
	var entries []Entry
	for i := 0; i < 64; i++ {
		entries = append(entries, Entry{Tenant: names[i%3], Pricer: "litmus", Minute: i, Commercial: 2, Price: 1, Key: fmt.Sprintf("batch-%d", i)})
	}
	entries[10].Commercial = -1
	entries[21].Key = "batch-18"
	results := make([]AccrualResult, len(entries))
	before := walWrites(l)
	l.AccrueBatch(entries, results)
	if got := walWrites(l) - before; got != 3 {
		t.Fatalf("a batch over 3 shards issued %d writes, want 3", got)
	}
	for i, r := range results {
		switch {
		case i == 10:
			if r.Err == nil {
				t.Fatalf("entry 10 accepted")
			}
			continue
		case r.Err != nil:
			t.Fatalf("entry %d: %v", i, r.Err)
		case i == 21 && r.Outcome != Duplicate:
			t.Fatalf("entry 21 = %v, want duplicate", r.Outcome)
		}
		want[i%3] += frameLen(entries[i], r.Outcome)
	}
	checkFiles("after AccrueBatch")
	if l.Durability().WALRecords != 3+63 {
		t.Fatalf("walRecords = %d, want 66", l.Durability().WALRecords)
	}
}

// TestAccrueBatchDurableAllocs: a warm durable batch — its tenants' accounts
// and windows exist, their WAL buffers have grown — allocates nothing. Its
// scratch, the per-shard commit watermarks included, comes from the ledger's
// pool, and each of its 8 shards is still written. Under -race it is skipped:
// the race detector makes sync.Pool drop a quarter of what is put back.
func TestAccrueBatchDurableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	l, err := New(Config{Shards: 16, Dir: t.TempDir(), Fsync: FsyncInterval, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, l)
	tenants := tenantsOnShards(l)[:8]
	entries := make([]Entry, 256)
	for i := range entries {
		entries[i] = Entry{Tenant: tenants[i%len(tenants)], Pricer: "litmus", Minute: 3, Commercial: 2, Price: 1}
	}
	results := make([]AccrualResult, len(entries))
	batch := func() {
		l.AccrueBatch(entries, results)
		for i, r := range results {
			if r.Outcome != Accrued || r.Err != nil {
				t.Fatalf("entry %d: %v, %v", i, r.Outcome, r.Err)
			}
		}
	}
	batch()
	before := walWrites(l)
	if allocs := testing.AllocsPerRun(50, batch); allocs != 0 {
		t.Errorf("a warm durable batch allocates %.1f times, want 0", allocs)
	}
	// The syncer may flush a batch's shard before its commit does, so a
	// batch can cost more writes, never fewer.
	if got := walWrites(l) - before; got < 8*51 {
		t.Errorf("%d WAL writes over 51 batches, want one per shard per batch (%d)", got, 8*51)
	}
}

// TestWALBytesUnchanged pins the log format and order across the group
// write: a fixed accrual sequence through both schedules leaves, per shard,
// exactly the frames a per-record writer appends in apply order. The digest
// is the one the commit before the group write produces for this sequence.
func TestWALBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	l := mustNew(t, Config{Dir: dir, Shards: 2, MaxTenants: 5, Fsync: FsyncInterval, SnapshotEvery: -1})
	tenants := []string{"acme", "zeta", "télécom", "globex", "initech", "over-cap"}
	expected := make([][]byte, 2)
	shardIndex := func(tenant string) int {
		for i, sh := range l.shards {
			if l.shardFor(tenant) == sh {
				return i
			}
		}
		panic("unreachable")
	}
	note := func(e Entry, o Outcome) {
		si := shardIndex(e.Tenant)
		expected[si] = AppendWALRecord(expected[si], WALRecord{Entry: e, Outcome: o})
	}
	entry := func(i int) Entry {
		e := Entry{Tenant: tenants[i%len(tenants)], Pricer: "litmus", Minute: i % 7, Commercial: float64(i) * 0.25, Price: float64(i) * 0.125}
		if i%3 != 0 {
			e.Key = fmt.Sprintf("k%d", i%11) // revisits keys: duplicates
		}
		if i%5 == 0 {
			e.Pricer = "commercial"
		}
		return e
	}
	i := 0
	for round := 0; round < 4; round++ {
		for n := 0; n < 5; n++ {
			e := entry(i)
			i++
			o, err := l.Accrue(e)
			if err != nil {
				t.Fatal(err)
			}
			note(e, o)
		}
		batch := make([]Entry, 23)
		for n := range batch {
			batch[n] = entry(i)
			i++
		}
		batch[7].Minute = -1 // rejected: never logged
		results := make([]AccrualResult, len(batch))
		l.AccrueBatch(batch, results)
		for n, r := range results {
			if n == 7 {
				continue
			}
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			note(batch[n], r.Outcome)
		}
	}
	mustClose(t, l)
	digest := sha256.New()
	for si := range expected {
		got, err := os.ReadFile(segmentPath(dir, si, 0))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(expected[si]) {
			t.Errorf("shard %d: segment is not its records framed in apply order (%d bytes, want %d)", si, len(got), len(expected[si]))
		}
		digest.Write(got)
	}
	const parent = "5540d3129c1f85d0ab63e4434b7db95dc615d3e0559b5818f9724a4b57bfe264"
	if got := hex.EncodeToString(digest.Sum(nil)); got != parent {
		t.Errorf("WAL bytes moved: sha256 %s, the per-record writer wrote %s", got, parent)
	}
}

// TestFlushFailurePoisonsShard is the failed-write contract: the batch's
// entries on the failing shard come back applied-but-not-durable (wrapped
// ErrDurability), the other shard's are clean and durable, the failing
// shard refuses later appends, snapshots report it, and a restart recovers
// exactly the written prefix — so retrying the flagged entries bills once.
func TestFlushFailurePoisonsShard(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Shards: 2, Fsync: FsyncAlways, SnapshotEvery: 16}
	l := mustNew(t, cfg)
	names := tenantsOnShards(l)
	good, bad := names[0], names[1]
	keyed := func(tenant string, i int) Entry {
		return Entry{Tenant: tenant, Pricer: "litmus", Minute: i, Commercial: 2, Price: 1, Key: fmt.Sprintf("k%d", i)}
	}
	accrue(t, l, keyed(good, 0))
	accrue(t, l, keyed(bad, 0))

	// Swap the bad shard's descriptor for a read-only one: every write(2)
	// from here on fails with EBADF.
	w := l.shards[1].wal
	ro, err := os.Open(segmentPath(dir, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	real := w.f
	w.f = ro
	w.mu.Unlock()
	defer func() {
		if err := real.Close(); err != nil {
			t.Error(err)
		}
	}()

	batch := []Entry{keyed(good, 1), keyed(bad, 1), keyed(good, 2), keyed(bad, 2)}
	results := make([]AccrualResult, len(batch))
	l.AccrueBatch(batch, results)
	for i, r := range results {
		if r.Outcome != Accrued {
			t.Fatalf("entry %d outcome %v: a failed write must not undo the bill", i, r.Outcome)
		}
		if onBad := batch[i].Tenant == bad; onBad != errors.Is(r.Err, ErrDurability) {
			t.Fatalf("entry %d (failing shard: %v): err = %v", i, onBad, r.Err)
		}
	}
	gw := l.shards[0].wal
	gw.mu.Lock()
	if gw.written != gw.appended || gw.synced.Load() != gw.appended {
		t.Errorf("healthy shard: appended %d, written %d, synced %d", gw.appended, gw.written, gw.synced.Load())
	}
	gw.mu.Unlock()
	w.mu.Lock()
	if w.err == nil || w.written >= w.appended || w.synced.Load() > w.written {
		t.Errorf("failing shard: err %v, appended %d, written %d, synced %d", w.err, w.appended, w.written, w.synced.Load())
	}
	w.mu.Unlock()

	// The shard refuses later appends — nothing applied, nothing reserved —
	// while the healthy shard keeps billing.
	st, reserved := l.Stats(), l.tenants.Load()
	if o, err := l.Accrue(keyed(bad, 3)); !errors.Is(err, ErrDurability) || o != Dropped {
		t.Fatalf("append to a poisoned shard: %v, %v", o, err)
	}
	newcomer := ""
	for i := 0; newcomer == ""; i++ {
		if name := fmt.Sprintf("newcomer-%d", i); l.shardFor(name) == l.shards[1] {
			newcomer = name
		}
	}
	if o, err := l.Accrue(Entry{Tenant: newcomer, Commercial: 1, Price: 1}); !errors.Is(err, ErrDurability) || o != Dropped {
		t.Fatalf("new tenant on a poisoned shard: %v, %v", o, err)
	}
	if after := l.Stats(); after.Accrued != st.Accrued || after.Tenants != st.Tenants || l.tenants.Load() != reserved {
		t.Fatalf("refused appends changed the ledger: %+v -> %+v", st, after)
	}
	accrue(t, l, keyed(good, 3))

	// Snapshots name the shard; the background snapshotter surfaces it.
	if err := l.Snapshot(); !errors.Is(err, ErrDurability) || !strings.Contains(err.Error(), "wal shard 1") {
		t.Fatalf("Snapshot on a poisoned shard: %v", err)
	}
	for i := 4; i < 4+cfg.SnapshotEvery; i++ {
		accrue(t, l, keyed(good, i))
	}
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(l.Durability().LastSnapshotError, "wal shard 1") {
		if time.Now().After(deadline) {
			t.Fatalf("background snapshotter never surfaced the failure: %+v", l.Durability())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := l.Close(); err == nil || !strings.Contains(err.Error(), "wal shard 1") {
		t.Fatalf("Close over a poisoned shard: %v", err)
	}

	// Restart: the failing shard holds its written prefix (one record), the
	// healthy shard everything; the flagged entries retry as fresh bills and
	// everything else as duplicates.
	r := mustNew(t, cfg)
	defer mustClose(t, r)
	if sum, _ := r.Summary(bad); sum.Invocations != 1 {
		t.Fatalf("recovered %d invocations on the failing shard, want the written prefix of 1", sum.Invocations)
	}
	if sum, _ := r.Summary(good); sum.Invocations != int64(4+cfg.SnapshotEvery) {
		t.Fatalf("recovered %d invocations on the healthy shard, want %d", sum.Invocations, 4+cfg.SnapshotEvery)
	}
	r.AccrueBatch(batch, results)
	for i, r := range results {
		want := Duplicate
		if batch[i].Tenant == bad {
			want = Accrued
		}
		if r.Err != nil || r.Outcome != want {
			t.Fatalf("retry of entry %d: %v, %v; want %v", i, r.Outcome, r.Err, want)
		}
	}
	if sum, _ := r.Summary(bad); sum.Invocations != 3 {
		t.Fatalf("after the retry the failing shard's tenant holds %d invocations, want 3", sum.Invocations)
	}
}

// TestGroupWriteConcurrent runs batch writers over overlapping shards beside
// explicit snapshots, the background snapshotter and (under interval) the
// syncer, then checks the log and the watermarks: every segment decodes
// whole, synced never passes written, recovery equals the live ledger, and
// under FsyncAlways every touched shard was synced past the batch's last
// record at the moment AccrueBatch returned.
func TestGroupWriteConcurrent(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncInterval, FsyncAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			// Archive keeps every segment, so a record's end offset in its
			// shard's concatenated segments is its appended watermark.
			// The key budget is a third of what each shard will see, so the
			// FIFOs evict (reslice) and grow (reallocate) under the snapshots
			// that read them by slice header.
			cfg := Config{Dir: dir, Shards: 4, MaxKeys: 1024, Fsync: mode, FsyncEvery: time.Millisecond, SnapshotEvery: 512, Archive: true}
			l := mustNew(t, cfg)
			names := tenantsOnShards(l)
			const writers, batches, batchSize = 4, 24, 32
			// observed[key] is the shard's synced watermark its writer read
			// right after the batch ending in key returned.
			type sample struct {
				shard  int
				synced uint64
			}
			var mu sync.Mutex
			observed := map[string]sample{}

			stop := make(chan struct{})
			var aux sync.WaitGroup
			aux.Add(2)
			go func() { // explicit snapshots beside the background snapshotter
				defer aux.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if err := l.Snapshot(); err != nil {
							t.Errorf("Snapshot: %v", err)
							return
						}
						time.Sleep(2 * time.Millisecond)
					}
				}
			}()
			go func() { // synced may never pass written
				defer aux.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for si, w := range l.dur.wals {
						synced := w.synced.Load()
						w.mu.Lock()
						written, appended, pending := w.written, w.appended, len(w.buf)
						w.mu.Unlock()
						if synced > written || written > appended || appended-written != uint64(pending) {
							t.Errorf("shard %d: synced %d, written %d, appended %d, %d pending", si, synced, written, appended, pending)
							return
						}
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()

			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					entries := make([]Entry, batchSize)
					results := make([]AccrualResult, batchSize)
					for b := 0; b < batches; b++ {
						last := map[int]string{} // shard → key of the batch's last record there
						for i := range entries {
							si := (g + i) % len(names)
							key := fmt.Sprintf("g%d-b%d-i%d", g, b, i)
							entries[i] = Entry{Tenant: names[si], Pricer: "litmus", Minute: b, Commercial: 2, Price: 1, Key: key}
							last[si] = key
						}
						l.AccrueBatch(entries, results)
						for si, key := range last {
							s := sample{shard: si, synced: l.dur.wals[si].synced.Load()}
							mu.Lock()
							observed[key] = s
							mu.Unlock()
						}
						for i, r := range results {
							if r.Err != nil || r.Outcome != Accrued {
								t.Errorf("writer %d batch %d entry %d: %v, %v", g, b, i, r.Outcome, r.Err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			aux.Wait()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			listing, err := ReadListing(dir)
			if err != nil {
				t.Fatal(err)
			}
			segs := listing.Segments
			marks := map[string]uint64{} // key → end offset in its shard's history
			offset := make([]uint64, cfg.Shards)
			records := 0
			var frame []byte
			for _, seg := range segs { // (shard, seq) order
				recs, _, err := ReadSegment(seg.Path)
				if err != nil {
					t.Fatalf("%s does not decode whole: %v", seg.Path, err)
				}
				for _, rec := range recs {
					frame = AppendWALRecord(frame[:0], rec)
					offset[seg.Shard] += uint64(len(frame))
					marks[rec.Entry.Key] = offset[seg.Shard]
				}
				records += len(recs)
			}
			if records != writers*batches*batchSize {
				t.Fatalf("the log holds %d records, want %d", records, writers*batches*batchSize)
			}
			if mode == FsyncAlways {
				for key, s := range observed {
					if s.synced < marks[key] {
						t.Errorf("AccrueBatch returned with shard %d synced to %d, its record %s ends at %d", s.shard, s.synced, key, marks[key])
					}
				}
			}

			r := mustNew(t, cfg)
			defer mustClose(t, r)
			assertSameState(t, r, l)
		})
	}
}
