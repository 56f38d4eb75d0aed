package ledger

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
)

// benchTenants is a fixed tenant universe large enough to spread across
// every shard configuration under test.
func benchTenants(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%04d", i)
	}
	return names
}

// BenchmarkAccrueParallel measures accrual throughput from GOMAXPROCS
// writers across shard counts. With one shard every writer serializes on a
// single mutex; striping should scale throughput near-linearly with cores
// until the stripes outnumber them.
func BenchmarkAccrueParallel(b *testing.B) {
	tenants := benchTenants(1024)
	for _, shards := range []int{1, 2, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			l, err := New(Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Offset each writer so they walk disjoint tenant cycles
				// instead of convoying on the same shard.
				i := int(worker.Add(1)) * 7919
				for pb.Next() {
					l.Accrue(Entry{
						Tenant:     tenants[i%len(tenants)],
						Pricer:     "litmus",
						Minute:     i % 64,
						Commercial: 2,
						Price:      1,
					})
					i++
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accruals/s")
		})
	}
}

// BenchmarkAccrueKeyed adds the idempotency-key path (probe + append) to
// the parallel accrual hot loop. The shards=N runs never leave the growing
// phase — b.N keys under the default 1 Mi budget, and both of their
// allocs/op are the benchmark's own Sprintf — so evicting measures the steady
// state a long-lived shard is in: a full window, where every new key also
// forgets the oldest one.
func BenchmarkAccrueKeyed(b *testing.B) {
	tenants := benchTenants(1024)
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			l, err := New(Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := worker.Add(1)
				i := int(w) * 7919
				for pb.Next() {
					l.Accrue(Entry{
						Tenant:     tenants[i%len(tenants)],
						Pricer:     "litmus",
						Minute:     i % 64,
						Commercial: 2,
						Price:      1,
						Key:        fmt.Sprintf("w%d-%d", w, i),
					})
					i++
				}
			})
		})
	}
	for _, size := range keyedSizes {
		b.Run("evicting"+size.suffix, func(b *testing.B) {
			l, entries := keyedLedger(b, size.budget, size.pool)
			before := l.Stats().KeysEvicted
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Accrue(entries[i%len(entries)])
			}
			b.StopTimer()
			b.ReportMetric(float64(l.Stats().KeysEvicted-before)/float64(b.N), "evictions/op")
		})
	}
}

// keyedSizes are the full one-shard windows the steady-state benchmarks run
// on: one whose 4096 keys fit in L2, and one shard's slice of the default
// budget (DefaultMaxKeys/DefaultShards = 65 536 keys). A serving node runs
// sixteen of the second, but one alone has a 363 KiB index that still fits
// in L2; BenchmarkAccrueBatchKeyed runs all sixteen. Each pool is larger than
// its budget, so every entry has been forgotten by the time it comes round
// again.
var keyedSizes = []struct {
	suffix       string // of the sub-benchmarks' names
	budget, pool int
}{
	{"", 1 << 12, 1 << 16},
	{"_64Ki", DefaultMaxKeys / DefaultShards, 2 * DefaultMaxKeys / DefaultShards},
}

// keyedLedger returns a one-shard ledger whose budget-key window has already
// seen every one of the pool keyed entries it also returns, built outside
// any timed loop: the window is full, only the newest budget are remembered,
// and accruing the entries again in order evicts once per record — each has
// been forgotten by the time it comes round.
func keyedLedger(b *testing.B, budget, pool int) (*Ledger, []Entry) {
	tenants := benchTenants(1024)
	l, err := New(Config{Shards: 1, MaxKeys: budget})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]Entry, pool)
	for i := range entries {
		entries[i] = Entry{Tenant: tenants[i%len(tenants)], Pricer: "litmus", Minute: i % 64, Commercial: 2, Price: 1, Key: fmt.Sprintf("k-%d", i)}
		if out, err := l.Accrue(entries[i]); err != nil || out != Accrued {
			b.Fatalf("Accrue(%+v) = %v, %v", entries[i], out, err)
		}
	}
	return l, entries
}

// BenchmarkSeen measures the admission gate's read-only peek into a full
// window, at each of keyedSizes: a remembered key (the retry it exists to
// wave through) and one the window has forgotten or never held (every first
// delivery).
func BenchmarkSeen(b *testing.B) {
	for _, size := range keyedSizes {
		l, entries := keyedLedger(b, size.budget, size.pool)
		tracked := l.Stats().KeysTracked
		for _, bc := range []struct {
			name  string
			probe []Entry
			hit   bool
		}{
			{"hit" + size.suffix, entries[len(entries)-tracked:], true},
			{"miss" + size.suffix, entries[:tracked], false},
		} {
			b.Run(bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := &bc.probe[i%len(bc.probe)]
					if l.Seen(e.Tenant, e.Key) != bc.hit {
						b.Fatalf("Seen(%q, %q) = %v", e.Tenant, e.Key, !bc.hit)
					}
				}
			})
		}
	}
}

// BenchmarkTenantsPage measures the cross-shard ordered page merge against
// a populated ledger, with the accrual path idle.
func BenchmarkTenantsPage(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			l, err := New(Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			for _, t := range benchTenants(10_000) {
				l.Accrue(Entry{Tenant: t, Pricer: "litmus", Commercial: 2, Price: 1})
			}
			b.ReportAllocs()
			b.ResetTimer()
			cursor := ""
			for i := 0; i < b.N; i++ {
				var page []Summary
				page, cursor = l.Tenants(cursor, 100)
				if len(page) == 0 {
					cursor = ""
				}
			}
		})
	}
}

// BenchmarkWALAppend measures durable accrual throughput per fsync mode
// from GOMAXPROCS writers: "never" shows the raw framing+write() cost over
// the volatile baseline, "interval" adds the background syncer, and
// "always" is dominated by group-committed fsyncs — the price of
// acknowledged-means-durable.
func BenchmarkWALAppend(b *testing.B) {
	tenants := benchTenants(1024)
	for _, mode := range []FsyncMode{FsyncNever, FsyncInterval, FsyncAlways} {
		b.Run("fsync="+mode.String(), func(b *testing.B) {
			l, err := New(Config{Shards: 8, Dir: b.TempDir(), Fsync: mode, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer mustClose(b, l)
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(worker.Add(1)) * 7919
				for pb.Next() {
					if _, err := l.Accrue(Entry{
						Tenant:     tenants[i%len(tenants)],
						Pricer:     "litmus",
						Minute:     i % 64,
						Commercial: 2,
						Price:      1,
					}); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accruals/s")
		})
	}
}

// BenchmarkAccrueBatchDurable measures the schedule the usage collector
// bills through: 256-entry batches round-robin over 8 tenants, so every
// batch interleaves its shards the way a multi-tenant stream does. It
// reports the per-record cost and the write(2)s a batch issues — one per
// touched shard; BenchmarkWALAppend above calls Accrue one entry at a time
// and pays one per record by contract.
func BenchmarkAccrueBatchDurable(b *testing.B) {
	const batchSize = 256
	tenants := benchTenants(8)
	for _, mode := range []FsyncMode{FsyncNever, FsyncInterval, FsyncAlways} {
		b.Run("fsync="+mode.String(), func(b *testing.B) {
			l, err := New(Config{Shards: 16, Dir: b.TempDir(), Fsync: mode, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer mustClose(b, l)
			entries := make([]Entry, batchSize)
			results := make([]AccrualResult, batchSize)
			writesBefore := walWrites(l)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range entries {
					entries[j] = Entry{Tenant: tenants[j%len(tenants)], Pricer: "litmus", Minute: i % 64, Commercial: 2, Price: 1}
				}
				l.AccrueBatch(entries, results)
				if err := results[batchSize-1].Err; err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/record")
			b.ReportMetric(float64(walWrites(l)-writesBefore)/float64(b.N), "writes/batch")
		})
	}
}

// BenchmarkAccrueBatchKeyed is the idempotency window at a serving node's
// shape: a default ledger — DefaultShards windows of DefaultMaxKeys/
// DefaultShards keys — already full and evicting, billed the way the usage
// collector bills, 512-entry batches round-robin over 8 tenants, each record
// under a fresh stream-style key. Each batch takes the next 8 of 64 tenants,
// which span every shard, so the 5.9 MB of index the windows hold together
// is what a probe misses in, as on a node. evicting_shards=1 holds the same
// budget in one shard: one window of 1 Mi keys, whose slots keep 21
// sequence bits and so the narrowest partial tag a default budget gives.
// bytes/key is Stats' KeyBytes over KeysTracked: what a remembered key
// costs the windows.
func BenchmarkAccrueBatchKeyed(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"evicting", Config{}},
		{"evicting_shards=1", Config{Shards: 1}},
	} {
		var batch func(b *testing.B)
		var l *Ledger
		b.Run(bc.name, func(b *testing.B) {
			if l == nil {
				l, batch = keyedBatches(b, bc.cfg)
			}
			before := l.Stats().KeysEvicted
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch(b)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keyedBatch), "ns/record")
			st := l.Stats()
			b.ReportMetric(float64(st.KeysEvicted-before)/float64(b.N*keyedBatch), "evictions/record")
			b.ReportMetric(float64(st.KeyBytes)/float64(st.KeysTracked), "bytes/key")
		})
	}
}

// keyedBatch is the records in one of BenchmarkAccrueBatchKeyed's batches.
const keyedBatch = 512

// keyedBatches returns a ledger of cfg whose every window is full, and a
// block past full, and the function that bills its next batch, so each
// batch finds every window forgetting as it takes keys.
func keyedBatches(b *testing.B, cfg Config) (*Ledger, func(*testing.B)) {
	const perBatch = 8
	tenants := benchTenants(64)
	l, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]Entry, keyedBatch)
	results := make([]AccrualResult, keyedBatch)
	ends := make([]int, keyedBatch)
	stream := 0
	// batch bills the next stream, its keys carved from one string the way
	// api.KeyArena carves them.
	batch := func(b *testing.B) {
		stream++
		var spelled []byte
		for j := range entries {
			spelled = append(strconv.AppendInt(append(spelled, "run-"...), int64(stream), 10), '#')
			spelled = strconv.AppendInt(spelled, int64(j+1), 10)
			ends[j] = len(spelled)
		}
		keys := string(spelled)
		start := 0
		for j := range entries {
			tenant := tenants[(stream*perBatch+j%perBatch)%len(tenants)]
			entries[j] = Entry{Tenant: tenant, Pricer: "litmus", Minute: stream % 64, Commercial: 2, Price: 1, Key: keys[start:ends[j]]}
			start = ends[j]
		}
		l.AccrueBatch(entries, results)
		if out := results[keyedBatch-1]; out.Err != nil || out.Outcome != Accrued {
			b.Fatalf("stream %d: last record %+v", stream, out)
		}
	}
	full := func() bool {
		for _, sh := range l.Stats().Shards {
			if sh.KeysTracked < DefaultMaxKeys/len(l.shards) {
				return false
			}
		}
		return true
	}
	for !full() {
		batch(b)
	}
	for range len(l.shards) * 4096 / keyedBatch {
		batch(b)
	}
	return l, batch
}

// BenchmarkRecover measures New's crash-recovery path: full WAL replay of
// n records into an 8-shard store, no snapshot to shortcut it.
func BenchmarkRecover(b *testing.B) {
	tenants := benchTenants(256)
	for _, n := range []int{1_000, 16_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			cfg := Config{Shards: 8, Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1}
			l, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				l.Accrue(Entry{
					Tenant:     tenants[i%len(tenants)],
					Pricer:     "litmus",
					Minute:     i % 64,
					Commercial: 2,
					Price:      1,
					Key:        fmt.Sprintf("k%d", i),
				})
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if got := r.Durability().Recovery.RecordsReplayed; got != uint64(n) {
					b.Fatalf("replayed %d records, want %d", got, n)
				}
				b.StopTimer()
				mustClose(b, r)
				b.StartTimer()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkSnapshot measures one compacting snapshot of a populated
// 8-shard store (the background snapshotter's unit of work) and New's
// recovery from it. The accruals are keyed and run past each shard's slice
// of the key budget, and each tenant bills a run of minutes, so the snapshot
// carries what a serving node's does: full, evicting key FIFOs beside
// accounts that hold many windows each.
func BenchmarkSnapshot(b *testing.B) {
	const minWindows = 16
	tenants := benchTenants(1024)
	cfg := Config{Shards: 8, MaxKeys: 16_000, Dir: b.TempDir(), Fsync: FsyncNever, SnapshotEvery: -1}
	l, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]Entry, 250)
	results := make([]AccrualResult, len(entries))
	for i := 0; i < 20_000; i += len(entries) {
		for j := range entries {
			n := i + j
			entries[j] = Entry{Tenant: tenants[n%len(tenants)], Pricer: "litmus", Minute: n / len(tenants), Commercial: 2, Price: 1, Key: fmt.Sprintf("run-7#%d", n)}
		}
		l.AccrueBatch(entries, results)
	}
	if st := l.Stats(); st.KeysEvicted == 0 || st.Accrued != 20_000 {
		b.Fatalf("population = %+v", st)
	}
	for _, sh := range l.shards {
		sh.mu.Lock()
		for name, a := range sh.accounts {
			if len(a.Windows) < minWindows {
				b.Fatalf("population: %s holds %d windows, want at least %d", name, len(a.Windows), minWindows)
			}
		}
		sh.mu.Unlock()
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := l.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(l.Durability().LastSnapshotBytes), "bytes/snapshot")
	})
	if l.Durability().Snapshots == 0 { // only recover was selected
		if err := l.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("recover", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if rec := r.Durability().Recovery; rec.SnapshotGen == 0 || rec.RecordsReplayed != 0 {
				b.Fatalf("recovery = %+v, want a snapshot and no tail", rec)
			}
			b.StopTimer()
			mustClose(b, r)
			b.StartTimer()
		}
	})
}
