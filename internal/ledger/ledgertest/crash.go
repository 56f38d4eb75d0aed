// crash.go is the crash-consistency half of the harness: helpers to build a
// durable ledger from a deterministic stream, clone its data directory with
// a WAL truncated at an arbitrary offset (simulating a kill at that point in
// the write stream), and derive the ground-truth oracle — a fresh volatile
// ledger fed exactly the acknowledged records that survive in the cloned
// directory's logs. The kill-at-every-offset tests recover every clone and
// Diff it against its oracle: whatever byte the crash landed on, the
// recovered store must equal a store that never crashed and was fed the
// surviving prefix.
package ledgertest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/ledger"
)

// Volatile strips the durability fields from cfg, yielding the in-memory
// configuration a durable ledger must stay bill-identical to.
func Volatile(cfg ledger.Config) ledger.Config {
	cfg.Dir = ""
	cfg.Fsync = 0
	cfg.FsyncEvery = 0
	cfg.SnapshotEvery = 0
	cfg.Archive = false
	return cfg
}

// BuildDurable drives the stream sequentially into a fresh durable ledger
// at cfg.Dir, closes it, and returns the acknowledged outcome sequence.
func BuildDurable(cfg ledger.Config, stream *Stream) ([]ledger.Outcome, error) {
	l, err := ledger.New(cfg)
	if err != nil {
		return nil, err
	}
	outcomes := stream.DriveSequential(l)
	if err := l.Close(); err != nil {
		return nil, err
	}
	return outcomes, nil
}

// CloneDirTruncated copies every regular file under src into dst (which
// must not exist), truncating the files named in truncate — keys are names
// relative to src — to the given byte sizes. It is the harness's crash
// camera: the clone is the data directory as a kill at those WAL offsets
// would have left it.
func CloneDirTruncated(src, dst string, truncate map[string]int64) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		var r io.Reader = in
		if size, ok := truncate[e.Name()]; ok {
			r = io.LimitReader(in, size)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			_ = in.Close()
			return err
		}
		_, cerr := io.Copy(out, r)
		_ = in.Close() // read side; the copy error above is the one that matters
		if err := out.Close(); cerr == nil {
			cerr = err
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}

// OracleFromWAL decodes every WAL segment under dir — in (shard, seq)
// order, taking each shard's longest valid prefix — and feeds the surviving
// entries into a fresh volatile ledger with the same billing configuration.
// That ledger is the ground truth a recovery of dir must match: the
// acknowledged prefix, billed by a store that never crashed.
//
// It also re-decides every logged outcome and fails if the log disagrees —
// the WAL can only ever contain outcomes a live ledger would produce.
// (Entries here never race the tenant cap, so outcomes are per-shard
// deterministic and the shard feeding order cannot matter.)
func OracleFromWAL(dir string, cfg ledger.Config) (*ledger.Ledger, int, error) {
	oracle, err := ledger.New(Volatile(cfg))
	if err != nil {
		return nil, 0, err
	}
	listing, err := ledger.ReadListing(dir)
	if err != nil {
		return nil, 0, err
	}
	total := 0
	for _, seg := range listing.Segments {
		recs, _, _ := ledger.DecodeWALFile(seg.Path) // the torn tail, if any, was never acknowledged
		for i, rec := range recs {
			got, err := oracle.Accrue(rec.Entry)
			if err != nil {
				return nil, 0, fmt.Errorf("%s record %d: oracle rejected %+v: %v", seg.Path, i, rec.Entry, err)
			}
			if got != rec.Outcome {
				return nil, 0, fmt.Errorf("%s record %d: logged outcome %v, oracle decided %v", seg.Path, i, rec.Outcome, got)
			}
			total++
		}
	}
	return oracle, total, nil
}

// Offsets returns the crash points to test for one WAL segment: offset 0,
// every record boundary, and for every record tornPerRecord interior
// offsets (a kill mid-frame). The final boundary — the intact file — is
// included, so the no-crash case rides along.
func Offsets(path string, tornPerRecord int) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, valid, derr := ledger.DecodeWAL(data)
	if derr != nil {
		return nil, fmt.Errorf("%s: not a clean log: %v", path, derr)
	}
	offsets := []int64{0}
	prev := int64(0)
	// Re-walk the boundaries by re-encoding each record: the encoding is
	// canonical, so the frame sizes reproduce the file's layout.
	var buf []byte
	for _, rec := range recs {
		buf = ledger.AppendWALRecord(buf[:0], rec)
		next := prev + int64(len(buf))
		for t := 1; t <= tornPerRecord; t++ {
			cut := prev + int64(t)*int64(len(buf))/int64(tornPerRecord+1)
			if cut > prev && cut < next {
				offsets = append(offsets, cut)
			}
		}
		offsets = append(offsets, next)
		prev = next
	}
	if prev != valid {
		return nil, fmt.Errorf("%s: boundary walk ended at %d, file has %d valid bytes", path, prev, valid)
	}
	return offsets, nil
}
