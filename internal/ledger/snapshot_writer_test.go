package ledger

// Tests for the streamed snapshot writer. The document is written by hand
// from live state and read by reflection; the writer the hand-written one
// replaced — capture every shard into a shardSnapshot, json.Marshal the
// document — survives here, and only here, as the oracle.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// oracleSnapshot is the pre-streaming writer: deep-copy each shard under its
// lock, then reflect the whole document into one buffer.
func oracleSnapshot(t *testing.T, l *Ledger, gen uint64) []byte {
	t.Helper()
	doc := snapshotDoc{
		snapshotHeader: snapshotHeader{Version: 1, Gen: gen, Meta: l.meta()},
		ShardStates:    make([]shardSnapshot, len(l.shards)),
	}
	for i, sh := range l.shards {
		sh.mu.Lock()
		ss := shardSnapshot{
			Accrued:     sh.accrued,
			Duplicates:  sh.duplicates,
			Dropped:     sh.dropped,
			KeysEvicted: sh.dedup.evicted(),
			Keys:        viewKeys(sh.dedup.snapshotView()),
			Accounts:    make(map[string]*account, len(sh.accounts)),
		}
		for name, a := range sh.accounts {
			ss.Accounts[name] = a.clone()
		}
		sh.mu.Unlock()
		doc.ShardStates[i] = ss
	}
	data, err := json.Marshal(&doc)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return data
}

// restored parses a snapshot document and restores it into a fresh volatile
// ledger of l's shape — what crash recovery and a standby's bootstrap do.
func restored(t *testing.T, l *Ledger, data []byte) *Ledger {
	t.Helper()
	doc, err := parseSnapshot(data, "snapshot", l.meta())
	if err != nil {
		t.Fatalf("parseSnapshot: %v\n%s", err, data)
	}
	r := mustNew(t, Config{Shards: len(l.shards), WindowMinutes: l.cfg.WindowMinutes, MaxKeys: l.cfg.MaxKeys, MaxTenants: l.cfg.MaxTenants})
	r.restore(doc)
	return r
}

// checkStreamedSnapshot snapshots l and holds the streamed file to the
// contract: valid JSON, restoring to exactly the live state — key FIFO order
// and counters included — and to exactly what the oracle's document restores
// to, with the recorded size the file's.
func checkStreamedSnapshot(t *testing.T, l *Ledger) {
	t.Helper()
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	d := l.Durability()
	data, err := os.ReadFile(snapshotPath(l.dur.dir, d.LastSnapshotGen))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("streamed snapshot is not valid JSON:\n%s", data)
	}
	if d.LastSnapshotBytes != int64(len(data)) {
		t.Errorf("lastSnapshotBytes = %d, the file holds %d", d.LastSnapshotBytes, len(data))
	}
	got := restored(t, l, data)
	assertSameState(t, got, l)
	assertSameState(t, got, restored(t, l, oracleSnapshot(t, l, d.LastSnapshotGen)))
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil || doc.Gen != d.LastSnapshotGen || doc.TakenUnix != d.LastSnapshotUnix {
		t.Errorf("header: gen %d takenUnix %d (err %v), stats say gen %d at %d", doc.Gen, doc.TakenUnix, err, d.LastSnapshotGen, d.LastSnapshotUnix)
	}
}

// snapshotStrings are the tenant, pricer and key shapes the appender must
// carry: JSON's two mandatory escapes, control bytes (every window key
// already holds a \x00; a tenant may not, so that shape skips the tenant
// role), multi-byte UTF-8, and the characters encoding/json escapes though
// JSON does not ask it to.
var snapshotStrings = []string{
	"plain", `quo"te`, `back\slash`, `\"`, "nul\x00inside", "tab\tnewline\ncr\r", "\x01\x1f\x7f",
	"ünïcödé-テナント-🧾", "<script>&amp;</script>", "line\u2028sep\u2029", "\ufffd", " ", `"`, `\`,
}

// snapshotAmounts cover both ends of each float format: zero, the smallest
// denormal, the exponent-form thresholds on either side, and the largest
// finite value.
var snapshotAmounts = []float64{0, 5e-324, 1e-7, 1e-6, 0.1, 1.0 / 3, 1e20, 1e21, 1.7976931348623157e308}

// TestSnapshotWriterProperty drives every string shape through every role
// (tenant, pricer, key) and every amount through both price fields, then
// checks the streamed snapshot — twice, the second over the state the first
// left plus duplicates, drops and evictions.
func TestSnapshotWriterProperty(t *testing.T) {
	l := mustNew(t, Config{Dir: t.TempDir(), Shards: 3, MaxKeys: 24, MaxTenants: len(snapshotStrings) - 1, WindowMinutes: 2, Fsync: FsyncNever, SnapshotEvery: -1})
	defer mustClose(t, l)
	checkStreamedSnapshot(t, l) // the empty store: no accounts, no keys
	for i, tenant := range snapshotStrings {
		if strings.IndexByte(tenant, 0) >= 0 {
			continue
		}
		for j, amount := range snapshotAmounts {
			e := Entry{
				Tenant:     tenant,
				Pricer:     snapshotStrings[(i+j)%len(snapshotStrings)],
				Minute:     j * 3,
				Commercial: amount,
				Price:      snapshotAmounts[(j+i)%len(snapshotAmounts)] / 2,
				Key:        snapshotStrings[(i*7+j)%len(snapshotStrings)] + fmt.Sprint(j%2),
			}
			if j%4 == 3 {
				e.Key = ""
			}
			if _, err := l.Accrue(e); err != nil {
				t.Fatalf("%+v: %v", e, err)
			}
		}
	}
	checkStreamedSnapshot(t, l)
	// Past the cap: drops. Known keys again: duplicates.
	for _, e := range []Entry{
		{Tenant: "one-too-many", Commercial: 1, Price: 1},
		{Tenant: "two-too-many", Commercial: 1, Price: 1, Key: "k"},
		{Tenant: "plain", Commercial: 1, Price: 1, Key: "again"},
		{Tenant: "plain", Commercial: 1, Price: 1, Key: "again"},
	} {
		if _, err := l.Accrue(e); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Dropped == 0 || st.Duplicates == 0 || st.KeysEvicted == 0 {
		t.Fatalf("the property run must cover drops, duplicates and evictions: %+v", st)
	}
	checkStreamedSnapshot(t, l)
}

// TestSnapshotWriterValues holds the appender's two leaf encoders to
// encoding/json directly: floats byte for byte, strings by what they decode
// to (the appender escapes less than encoding/json does).
func TestSnapshotWriterValues(t *testing.T) {
	for _, f := range append([]float64{9.999999e-7, 999999999999999868928, 123456789.125, 2.5e-9, 1e-10, 1e100}, snapshotAmounts...) {
		checkSnapshotFloat(t, f)
	}
	for _, s := range append([]string{"ill-formed \xff\xfe utf-8", "\xc3", ""}, snapshotStrings...) {
		checkSnapshotString(t, s)
	}
	var w snapshotWriter
	w.float(math.Inf(1))
	if w.err == nil || !json.Valid(w.buf) {
		t.Fatalf("+Inf: err %v, wrote %q", w.err, w.buf)
	}
}

func checkSnapshotFloat(t *testing.T, f float64) {
	t.Helper()
	var w snapshotWriter
	w.float(f)
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if w.err != nil || !bytes.Equal(w.buf, want) {
		t.Errorf("float %v: wrote %q (err %v), encoding/json writes %q", f, w.buf, w.err, want)
	}
}

func checkSnapshotString(t *testing.T, s string) {
	t.Helper()
	var w snapshotWriter
	w.str(s)
	var got, want string
	if err := json.Unmarshal(w.buf, &got); err != nil {
		t.Fatalf("string %q: wrote %q: %v", s, w.buf, err)
	}
	oracle, _ := json.Marshal(s)
	if err := json.Unmarshal(oracle, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("string %q: %q decodes to %q, encoding/json's %q to %q", s, w.buf, got, oracle, want)
	}
}

// FuzzSnapshotWriter feeds arbitrary strings and amounts through the leaf
// encoders and, when a ledger would accept them, through a whole snapshot.
func FuzzSnapshotWriter(f *testing.F) {
	for i, s := range snapshotStrings {
		f.Add(s, snapshotStrings[(i+3)%len(snapshotStrings)], "k"+s, snapshotAmounts[i%len(snapshotAmounts)], i)
	}
	f.Add("t\xff1", "litmus", "k\xff\xfe", 1.5, 7)
	f.Fuzz(func(t *testing.T, tenant, pricer, key string, amount float64, minute int) {
		for _, s := range []string{tenant, pricer, key} {
			checkSnapshotString(t, s)
		}
		if !math.IsInf(amount, 0) && !math.IsNaN(amount) {
			checkSnapshotFloat(t, amount)
		}
		e := Entry{Tenant: tenant, Pricer: pricer, Minute: minute, Commercial: amount, Price: amount / 3, Key: key}
		// pricer plays the tenant role below, so it must pass as one too.
		if validateEntry(e) != nil || validateEntry(Entry{Tenant: pricer + "x"}) != nil || amount > math.MaxFloat64/4 { // totals must stay finite
			return
		}
		l := mustNew(t, Config{Dir: t.TempDir(), Shards: 2, MaxKeys: 2, Fsync: FsyncNever, SnapshotEvery: -1})
		defer mustClose(t, l)
		for _, e := range []Entry{e, e, {Tenant: pricer + "x", Pricer: tenant, Minute: minute / 2, Commercial: amount / 2, Price: 0, Key: tenant}, {Tenant: tenant, Pricer: key, Commercial: 1, Price: 1, Key: pricer}} {
			if _, err := l.Accrue(e); err != nil {
				t.Fatalf("%+v: %v", e, err)
			}
		}
		checkStreamedSnapshot(t, l)
	})
}

// TestSnapshotRefusesOverflowedTotal: a total that overflowed to +Inf cannot
// be written as JSON. The attempt fails and leaves the previous snapshot in
// place rather than committing a document recovery could not parse.
func TestSnapshotRefusesOverflowedTotal(t *testing.T) {
	dir := t.TempDir()
	l := mustNew(t, Config{Dir: dir, Shards: 1, Fsync: FsyncNever, SnapshotEvery: -1})
	defer mustClose(t, l)
	accrue(t, l, Entry{Tenant: "whale", Commercial: math.MaxFloat64, Price: 1})
	checkStreamedSnapshot(t, l)
	accrue(t, l, Entry{Tenant: "whale", Commercial: math.MaxFloat64, Price: 1})
	if err := l.Snapshot(); err == nil || !strings.Contains(err.Error(), "encoding snapshot") {
		t.Fatalf("snapshot of an infinite total: %v", err)
	}
	if d := l.Durability(); d.LastSnapshotGen != 1 || d.Snapshots != 1 {
		t.Fatalf("durability = %+v", d)
	}
	if _, err := os.Stat(snapshotPath(dir, 2) + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}
