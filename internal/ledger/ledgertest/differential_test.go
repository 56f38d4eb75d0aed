package ledgertest

import (
	"testing"

	"repro/internal/ledger"
)

// shardCounts are the configurations every differential case holds to the
// model.
var shardCounts = []int{1, 2, 8, 64}

func mustNew(t *testing.T, cfg ledger.Config) *ledger.Ledger {
	t.Helper()
	l, err := ledger.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// driveAgainstModel bills stream sequentially into a ledger built from cfg
// and holds it to the model fed the same sequence: every outcome and every
// observable must match bit for bit, for arbitrary float amounts — same
// entries, same order, so even non-associative float sums line up exactly.
// It returns the model's results.
func driveAgainstModel(t *testing.T, cfg ledger.Config, stream *Stream) []ledger.AccrualResult {
	t.Helper()
	m, want := modelOf(cfg, stream.sequence())
	l := mustNew(t, cfg)
	out := stream.DriveSequential(l)
	for i, o := range outcomesOf(want) {
		if out[i] != o {
			t.Fatalf("shards %d: outcome %d = %v, model = %v", cfg.Shards, i, out[i], o)
		}
	}
	if err := Diff(m, l); err != nil {
		t.Errorf("shards %d: %v", cfg.Shards, err)
	}
	return want
}

// TestShardEquivalenceSequential drives one fixed interleaving into ledgers
// of every shard count, each held to the model: the shard count can never
// change a bill.
func TestShardEquivalenceSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		stream := Generate(seed, GenConfig{Workers: 4, PerWorker: 300, Tenants: 37, Minutes: 48})
		for _, shards := range shardCounts {
			driveAgainstModel(t, ledger.Config{Shards: shards}, stream)
		}
	}
}

// TestShardEquivalenceSequentialAtTenantCap repeats the sequential drive
// with a tenant cap smaller than the tenant universe: drops are
// order-determined, so every sharded ledger must admit — and reject —
// exactly the tenants the model does.
func TestShardEquivalenceSequentialAtTenantCap(t *testing.T) {
	stream := Generate(11, GenConfig{Workers: 4, PerWorker: 250, Tenants: 40, KeyEvery: 2})
	for _, shards := range shardCounts {
		want := driveAgainstModel(t, ledger.Config{Shards: shards, MaxTenants: 25}, stream)
		dropped := 0
		for _, r := range want {
			if r.Outcome == ledger.Dropped {
				dropped++
			}
		}
		if dropped == 0 {
			t.Fatal("cap case exercised no drops; shrink MaxTenants or grow Tenants")
		}
	}
}

// TestShardEquivalenceConcurrent drives per-worker substreams from
// concurrent goroutines in seeded batch sizes, so the interleaving differs
// between ledgers and across runs. Exact (dyadic) amounts make sums
// order-independent, and keyed entries carry amounts determined by their
// key, so whichever writer wins a key race bills the same value:
// statements, summaries, pagination and the dedup counters must still match
// the model's sequential bill to the last bit.
func TestShardEquivalenceConcurrent(t *testing.T) {
	for _, seed := range []int64{3, 99} {
		stream := Generate(seed, GenConfig{
			Workers: 8, PerWorker: 400, Tenants: 37, Minutes: 48, Exact: true,
		})
		for _, shards := range shardCounts {
			cfg := ledger.Config{Shards: shards}
			m, _ := modelOf(cfg, stream.sequence())
			l := mustNew(t, cfg)
			stream.DriveConcurrent(l)
			if err := Diff(m, l); err != nil {
				t.Errorf("seed %d shards %d: %v", seed, shards, err)
			}
		}
	}
}

// TestGenerateIsDeterministic guards the harness itself: the same seed must
// reproduce the same stream, and keyed entries must be identical wherever
// their key appears.
func TestGenerateIsDeterministic(t *testing.T) {
	a := Generate(5, GenConfig{Exact: true})
	b := Generate(5, GenConfig{Exact: true})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	byKey := map[string]ledger.Entry{}
	for w := range a.Workers {
		for i := range a.Workers[w] {
			ea, eb := a.Workers[w][i], b.Workers[w][i]
			if ea != eb {
				t.Fatalf("worker %d entry %d differs: %+v vs %+v", w, i, ea, eb)
			}
			if ea.Key == "" {
				continue
			}
			id := ea.Tenant + "\x00" + ea.Key
			if prev, seen := byKey[id]; seen && prev != ea {
				t.Fatalf("key %q carries two different entries: %+v vs %+v", id, prev, ea)
			}
			byKey[id] = ea
		}
	}
	if len(byKey) == 0 {
		t.Fatal("stream carried no keyed entries")
	}
}
