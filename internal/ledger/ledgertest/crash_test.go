package ledgertest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ledger"
)

// mustClose fails the test if Close errors: on a durable ledger Close is
// the final WAL sync, and a silent failure there could mask durability bugs.
func mustClose(t testing.TB, l *ledger.Ledger) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Errorf("ledger close: %v", err)
	}
}

// readSegment reads one WAL segment's records through ledger.ReadWAL,
// returning them with its verdict.
func readSegment(path string) ([]ledger.WALRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //litmus:close-ok read-only; nothing buffered to lose
	var recs []ledger.WALRecord
	_, err = ledger.ReadWAL(f, func(rec ledger.WALRecord, _ int64) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}

// crashStream is the workload behind the kill-at-every-offset tests: small
// enough that every truncation point of every shard is affordable under
// -race, rich enough to exercise keys, retries and multiple windows. The
// tenant universe stays below the cap so oracle outcomes are per-shard
// deterministic (cap races are covered by the differential tests).
func crashStream(seed int64) *Stream {
	return Generate(seed, GenConfig{Workers: 3, PerWorker: 30, Tenants: 12, Minutes: 16, KeyEvery: 3, KeySpace: 8})
}

// oracleFromWAL decodes every WAL segment under dir — in (shard, seq)
// order, taking each shard's longest valid prefix — and feeds the surviving
// entries to a fresh model configured like cfg. That model is the ground
// truth a recovery of dir must match: the acknowledged prefix, billed by a
// store that never crashed.
//
// It also re-decides every logged outcome and fails if the log disagrees —
// the WAL can only ever contain outcomes a live ledger would produce.
// (Entries here never race the tenant cap, so outcomes are per-shard
// deterministic and the shard feeding order cannot matter.)
func oracleFromWAL(dir string, cfg ledger.Config) (*model, int, error) {
	oracle := newModel(cfg)
	listing, err := ledger.ReadListing(dir)
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, seg := range listing.Segments {
		recs, _ := readSegment(seg.Path) // the torn tail, if any, was never acknowledged
		for i, rec := range recs {
			got, err := oracle.accrue(rec.Entry)
			if err != nil {
				return nil, 0, fmt.Errorf("%s record %d: the model refused %+v: %v", seg.Path, i, rec.Entry, err)
			}
			if got != rec.Outcome {
				return nil, 0, fmt.Errorf("%s record %d: logged outcome %v, the model decided %v", seg.Path, i, rec.Outcome, got)
			}
			total++
		}
	}
	return oracle, total, nil
}

// recoverAndDiff opens a ledger over dir and proves it equal to the oracle
// built from dir's surviving WAL records.
func recoverAndDiff(t *testing.T, dir string, cfg ledger.Config, wantRecovered int) {
	t.Helper()
	cfg.Dir = dir
	recovered, err := ledger.New(cfg)
	if err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	defer mustClose(t, recovered)
	oracle, n, err := oracleFromWAL(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wantRecovered >= 0 && n != wantRecovered {
		t.Fatalf("oracle saw %d records, want %d", n, wantRecovered)
	}
	if err := Diff(oracle, recovered); err != nil {
		t.Fatalf("recovered store diverges from the acknowledged prefix: %v", err)
	}
}

// TestKillAtEveryOffset is the crash-consistency proof: drive a
// deterministic stream into a durable ledger, then for every WAL segment
// clone the data directory truncated at offset 0, at every record boundary,
// and at torn mid-record offsets — and require every clone to recover to
// exactly the store a never-crashed ledger fed the surviving records would
// hold: byte-identical statements, stats, pagination and dedup outcomes.
func TestKillAtEveryOffset(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			src := t.TempDir()
			cfg := ledger.Config{Shards: shards, Dir: src, Fsync: ledger.FsyncNever, SnapshotEvery: -1}
			if _, err := BuildDurable(cfg, crashStream(21)); err != nil {
				t.Fatal(err)
			}
			listing, err := ledger.ReadListing(src)
			if err != nil {
				t.Fatal(err)
			}
			segs := listing.Segments
			if len(segs) != shards {
				t.Fatalf("%d segments for %d shards", len(segs), shards)
			}
			clones := 0
			for _, seg := range segs {
				full, err := readSegment(seg.Path)
				if err != nil {
					t.Fatal(err)
				}
				offsets, err := Offsets(seg.Path, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, cut := range offsets {
					dst := t.TempDir()
					name := filepath.Base(seg.Path)
					if err := CloneDirTruncated(src, dst, map[string]int64{name: cut}); err != nil {
						t.Fatal(err)
					}
					// The clone's surviving records must be a prefix of the
					// shard's acknowledged sequence.
					surv, _ := readSegment(filepath.Join(dst, name))
					for i, rec := range surv {
						if rec != full[i] {
							t.Fatalf("%s cut %d: record %d is not the acknowledged prefix", name, cut, i)
						}
					}
					recoverAndDiff(t, dst, ledger.Config{Shards: shards, Fsync: ledger.FsyncNever, SnapshotEvery: -1}, -1)
					clones++
				}
			}
			t.Logf("shards=%d: recovered %d truncation clones", shards, clones)
		})
	}
}

// TestKillAtJointOffsets kills all shards at once: every WAL is truncated
// at an independently chosen offset, the way a real crash tears a
// multi-file write stream.
func TestKillAtJointOffsets(t *testing.T) {
	const shards = 8
	src := t.TempDir()
	cfg := ledger.Config{Shards: shards, Dir: src, Fsync: ledger.FsyncNever, SnapshotEvery: -1}
	if _, err := BuildDurable(cfg, crashStream(33)); err != nil {
		t.Fatal(err)
	}
	listing, err := ledger.ReadListing(src)
	if err != nil {
		t.Fatal(err)
	}
	segs := listing.Segments
	perSeg := make([][]int64, len(segs))
	for i, seg := range segs {
		if perSeg[i], err = Offsets(seg.Path, 2); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 16; trial++ {
		truncate := map[string]int64{}
		for i, seg := range segs {
			truncate[filepath.Base(seg.Path)] = perSeg[i][r.Intn(len(perSeg[i]))]
		}
		dst := t.TempDir()
		if err := CloneDirTruncated(src, dst, truncate); err != nil {
			t.Fatal(err)
		}
		recoverAndDiff(t, dst, ledger.Config{Shards: shards, Fsync: ledger.FsyncNever, SnapshotEvery: -1}, -1)
	}
}

// TestKillAtEveryOffsetAfterSnapshot repeats the kill walk with a snapshot
// in the middle of the stream: recovery must stitch snapshot plus truncated
// WAL tail back into exactly the acknowledged store. Archive keeps the
// superseded segments so the oracle can re-derive the full history from the
// logs alone.
func TestKillAtEveryOffsetAfterSnapshot(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			src := t.TempDir()
			cfg := ledger.Config{Shards: shards, Dir: src, Fsync: ledger.FsyncNever, SnapshotEvery: -1, Archive: true}
			l, err := ledger.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			crashStream(5).DriveSequential(l)
			if err := l.Snapshot(); err != nil {
				t.Fatal(err)
			}
			crashStream(6).DriveSequential(l)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			listing, err := ledger.ReadListing(src)
			if err != nil {
				t.Fatal(err)
			}
			segs := listing.Segments
			for _, seg := range segs {
				if seg.Seq != 1 {
					continue // only the post-snapshot active segment can be torn by a crash
				}
				offsets, err := Offsets(seg.Path, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, cut := range offsets {
					dst := t.TempDir()
					if err := CloneDirTruncated(src, dst, map[string]int64{filepath.Base(seg.Path): cut}); err != nil {
						t.Fatal(err)
					}
					recoverAndDiff(t, dst, ledger.Config{Shards: shards, SnapshotEvery: -1, Archive: true}, -1)
				}
			}
		})
	}
}

// TestRecoveredEqualsVolatile is the durability half of the equivalence
// guarantee: a durable ledger, closed and recovered, must be Diff-identical
// to a volatile ledger fed the same entries, both must equal the model —
// and both must keep billing as the model does afterwards, dedup state
// included.
func TestRecoveredEqualsVolatile(t *testing.T) {
	for _, shards := range []int{1, 8} {
		stream := Generate(17, GenConfig{Workers: 4, PerWorker: 200, Tenants: 24, Minutes: 32})
		cfg := ledger.Config{Shards: shards}
		m, want := modelOf(cfg, stream.sequence())
		volatile := mustNew(t, cfg)
		stream.DriveSequential(volatile)

		dir := t.TempDir()
		dcfg := cfg
		dcfg.Dir, dcfg.Fsync, dcfg.SnapshotEvery = dir, ledger.FsyncNever, -1
		durableOut, err := BuildDurable(dcfg, stream)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outcomesOf(want) {
			if durableOut[i] != o {
				t.Fatalf("shards=%d: durable outcome %d = %v, model = %v", shards, i, durableOut[i], o)
			}
		}

		recovered, err := ledger.New(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Diff(m, volatile); err != nil {
			t.Fatalf("shards=%d: volatile != model: %v", shards, err)
		}
		if err := Diff(volatile, recovered); err != nil {
			t.Fatalf("shards=%d: recovered != volatile: %v", shards, err)
		}
		// Keep billing on both: retries of already-billed keys must dedup on
		// the recovered store exactly as on the never-crashed one.
		tail := Generate(18, GenConfig{Workers: 2, PerWorker: 100, Tenants: 24, Minutes: 32, KeyEvery: 2, KeySpace: 8})
		tailWant := outcomesOf(m.drive(tail.sequence()))
		a := tail.DriveSequential(volatile)
		b := tail.DriveSequential(recovered)
		for i := range a {
			if a[i] != tailWant[i] || b[i] != tailWant[i] {
				t.Fatalf("shards=%d: post-recovery outcome %d = %v, volatile = %v, model = %v", shards, i, b[i], a[i], tailWant[i])
			}
		}
		if err := Diff(m, recovered); err != nil {
			t.Fatalf("shards=%d: post-recovery ingest diverged: %v", shards, err)
		}
		if err := Diff(volatile, recovered); err != nil {
			t.Fatalf("shards=%d: post-recovery ingest diverged from volatile: %v", shards, err)
		}
		mustClose(t, recovered)
	}
}
