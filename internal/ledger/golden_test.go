package ledger_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ledger"
	"repro/internal/ledger/ledgertest"
)

// testdata/durable-v1 is a data directory written by the commit BEFORE the
// durable store's types were merged (meta.json, one snapshot, four WAL
// segments of which shard 1's is torn mid-record), with expected.json
// recording what that commit recovered from it. It fences the on-disk
// formats: a change to the snapshot document, the WAL frame or the rebuild
// path must still read these bytes into exactly this state. Regenerate only
// for a deliberate format break, from the last commit that wrote the old
// format.
const goldenDir = "testdata/durable-v1"

func goldenCfg(dir string) ledger.Config {
	return ledger.Config{
		MaxTenants:    6, // the streams name 8 tenants: the WAL holds Dropped outcomes
		WindowMinutes: 2,
		MaxKeys:       24, // 6 per shard: the snapshot holds an evicting key FIFO
		Shards:        4,
		Dir:           dir,
		Fsync:         ledger.FsyncNever,
		SnapshotEvery: -1,
	}
}

// checkGolden compares l's stats, tenant listing and full statements — and,
// when recovery is non-nil, the recovery stats — with expected.json, as
// marshalled bytes.
func checkGolden(t *testing.T, l *ledger.Ledger, recovery *ledger.RecoveryStats) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	check := func(key string, v any) {
		t.Helper()
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, want[key]); err != nil {
			t.Fatalf("expected.json %q: %v", key, err)
		}
		if !bytes.Equal(got, compact.Bytes()) {
			t.Errorf("%s differs from the recorded state:\n got: %s\nwant: %s", key, got, compact.Bytes())
		}
	}
	// KeyBytes is how the windows hold their keys, which a change of
	// representation moves, and the recorded state predates it; the rest
	// of the stats is compared as the recorded state decodes.
	st := l.Stats()
	st.KeyBytes = 0
	for i := range st.Shards {
		st.Shards[i].KeyBytes = 0
	}
	var recorded ledger.Stats
	if err := json.Unmarshal(want["stats"], &recorded); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(st)
	if w, _ := json.Marshal(recorded); !bytes.Equal(got, w) {
		t.Errorf("stats differ from the recorded state:\n got: %s\nwant: %s", got, w)
	}
	tenants, _ := l.Tenants("", 1000)
	check("tenants", tenants)
	statements := map[string]ledger.Statement{}
	for _, sum := range tenants {
		statements[sum.Tenant], _ = l.Statement(sum.Tenant, 0, -1)
	}
	check("statements", statements)
	if recovery != nil {
		// Load and replay times are wall-clock readings the recorded state
		// predates, so they are dropped; every other key, recorded or
		// marshalled, must be on both sides with the same bytes.
		var got, recorded map[string]json.RawMessage
		data, _ := json.Marshal(recovery)
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		delete(got, "snapshotLoadMs")
		delete(got, "walReplayMs")
		var compact bytes.Buffer
		if err := json.Compact(&compact, want["recovery"]); err != nil {
			t.Fatalf("expected.json %q: %v", "recovery", err)
		}
		if err := json.Unmarshal(compact.Bytes(), &recorded); err != nil {
			t.Fatal(err)
		}
		if !maps.EqualFunc(got, recorded, func(g, r json.RawMessage) bool { return bytes.Equal(g, r) }) {
			t.Errorf("recovery differs from the recorded state:\n got: %s\nwant: %s", data, compact.Bytes())
		}
	}
}

// recoverGolden opens a scratch copy of the committed directory (recovery
// truncates the torn tail in place).
func recoverGolden(t *testing.T) *ledger.Ledger {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	if err := ledgertest.CloneDirTruncated(goldenDir, dir, nil); err != nil {
		t.Fatal(err)
	}
	l, err := ledger.New(goldenCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

func TestRecoverParentWrittenDirectory(t *testing.T) {
	l := recoverGolden(t)
	recovery := l.Durability().Recovery
	checkGolden(t, l, &recovery)
}

// TestBootstrapStandbyFromParentWrittenDirectory feeds the same bytes through
// the replication entry points: the standby must equal both the recorded
// state and the recovered node.
func TestBootstrapStandbyFromParentWrittenDirectory(t *testing.T) {
	ls, err := ledger.ReadListing(goldenDir)
	if err != nil || ls.SnapshotPath == "" {
		t.Fatalf("ReadListing: %v, snapshot %q", err, ls.SnapshotPath)
	}
	snapshot, err := os.ReadFile(ls.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	standby := newStandby(t, goldenCfg(""))
	gen, err := standby.RestoreSnapshot(snapshot)
	if err != nil || gen != ls.SnapshotGen {
		t.Fatalf("RestoreSnapshot = %d, %v; want generation %d", gen, err, ls.SnapshotGen)
	}
	torn := 0
	for _, seg := range ls.Segments {
		// A follower applies each segment's longest valid prefix; the torn
		// record was never acknowledged.
		recs, _, derr := ledger.ReadSegment(seg.Path)
		if derr != nil {
			torn++
		}
		for _, rec := range recs {
			if err := standby.ApplyReplica(rec); err != nil {
				t.Fatalf("ApplyReplica: %v", err)
			}
		}
	}
	if torn != 1 {
		t.Fatalf("%d torn segments in %s, want 1", torn, goldenDir)
	}
	promote(t, standby)
	checkGolden(t, standby, nil)
	if err := ledgertest.Diff(recoverGolden(t), standby); err != nil {
		t.Fatalf("recovered node and bootstrapped standby differ: %v", err)
	}
}
