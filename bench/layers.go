package main

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/ledger"
)

// counters are the system under test's own books, summed over its nodes
// from /healthz.
type counters struct {
	duplicates, evicted, syncs, snapshots uint64
	admitted, throttled                   int64
}

func (r *run) health() (counters, error) {
	var c counters
	for _, node := range r.sut.nodeURLs {
		var h api.HealthResponse
		if err := r.callURL(node, opTenants, http.MethodGet, "/healthz", "", "", nil, &h); err != nil {
			return c, err
		}
		c.duplicates += h.DuplicateAccruals
		c.evicted += h.KeysEvicted
		if d := h.Durability; d != nil {
			c.syncs += d.Syncs
			c.snapshots += d.Snapshots
		}
		if a := h.Admission; a != nil {
			c.admitted += a.Admitted
			c.throttled += a.Throttled
		}
	}
	return c, nil
}

// tracedPass is the --trace 1 run: an untraced and a traced window of
// half the time each (their difference is the tracing overhead),
// the correctness gate, then the stage replay, which calls each layer's
// public functions directly on a sample of the same streams.
func (r *run) tracedPass(o options) (map[string]float64, error) {
	// A layer the workload does not exercise keeps its 0, which is the
	// "this workload bypasses it" half of each prediction.
	m := map[string]float64{}
	for _, def := range o.bf.PerLayer {
		m[def.Name] = 0
	}
	set := func(name string, v float64) {
		if _, ok := m[name]; !ok {
			panic("BENCHMARK.json does not list the layer metric " + name)
		}
		m[name] = v
	}

	plain, err := r.measure(o.seconds / 2)
	if err != nil {
		return nil, err
	}
	// An end-to-end candidate that could not hold a bound is listed as a
	// layer metric under its own name and read off the untraced window.
	for name, v := range endToEnd(plain, r.sp, 0) {
		if _, ok := m[name]; ok {
			m[name] = v
		}
	}
	h0, err := r.health()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	r.tr = tr
	traced, err := r.measure(o.seconds / 2)
	r.tr = nil
	if err != nil {
		return nil, err
	}
	h1, err := r.health()
	if err != nil {
		return nil, err
	}
	statements := r.verify()

	streams := float64(len(traced.lat[opStream]))
	set("ledger.duplicates", float64(h1.duplicates-h0.duplicates))
	set("ledger.keys_evicted", float64(h1.evicted-h0.evicted))
	set("wal.syncs_per_stream", float64(h1.syncs-h0.syncs)/streams)
	set("wal.snapshots", float64(h1.snapshots-h0.snapshots))
	if n := h1.admitted + h1.throttled; n > 0 {
		set("admission.throttled_share", float64(h1.throttled)/float64(n))
	}
	lateness := quantile(traced.late, 0.99)
	set("loadgen.lateness_p99_ms", lateness)
	if lateness > 1 {
		set("loadgen.late", 1)
	}
	set("loadgen.actual_rate", float64(traced.attempted)/traced.wall.Seconds())
	set("loadgen.stream_p99_ms", quantile(traced.lat[opStream], 0.99))
	set("loadgen.stream_p999_ms", quantile(traced.lat[opStream], 0.999))
	set("process.gc_cycles", float64(traced.mem1.NumGC-traced.mem0.NumGC))
	set("process.gc_pause_ms_total", float64(traced.mem1.PauseTotalNs-traced.mem0.PauseTotalNs)/1e6)
	set("process.heap_inuse_mb", float64(traced.mem1.HeapInuse)/(1<<20))
	if r.sp.rate > 0 {
		// An open loop completes the same records either way; what
		// tracing costs shows as processor time per record.
		perRecord := func(w *window) float64 { return float64(w.cpu) / float64(w.records) }
		set("trace.overhead_share", perRecord(traced)/perRecord(plain)-1)
	} else {
		perSecond := func(w *window) float64 { return float64(w.records) / w.wall.Seconds() }
		set("trace.overhead_share", 1-perSecond(traced)/perSecond(plain))
	}

	dataDir := r.sut.dataDir
	if err := r.stopSUT(); err != nil {
		return nil, err
	}
	if dataDir != "" {
		rec, err := recoverLedger(dataDir, statements)
		r.tally.check(err == nil, "%v", err)
		if err == nil {
			set("wal.recover_s", rec.Seconds())
		}
	}

	p, err := newReplay(r, tr, o.scale)
	if err != nil {
		return nil, err
	}
	if err := p.stages(set); err != nil {
		return nil, err
	}
	return m, tr.write(o.out, r.sp.name)
}

// recoverLedger reopens the run's data dir as a restarted node would and
// times it; the recovered statements must equal the ones served before
// the stop.
func recoverLedger(dir string, before map[string]api.StatementResponse) (time.Duration, error) {
	t0 := time.Now()
	// The shape api.New gives a durable ledger; recovery refuses another.
	led, err := ledger.New(ledger.Config{MaxTenants: api.DefaultMaxTenants, Shards: api.DefaultShards, Dir: dir})
	if err != nil {
		return 0, fmt.Errorf("recovering %s: %w", dir, err)
	}
	d := time.Since(t0)
	//litmus:close-ok the recovered ledger is only read; the run's data dir is removed next
	defer led.Close()
	for tenant, want := range before {
		got, ok := led.Statement(tenant, 0, -1)
		//litmus:float-eq-ok differential: recovery must reproduce the exact statement served before the stop
		if !ok || got.Invocations != want.Invocations || got.Billed != want.Billed || got.Commercial != want.Commercial {
			return 0, fmt.Errorf("recovered statement of %s: %d invocations billed %v, served %d billed %v",
				tenant, got.Invocations, got.Billed, want.Invocations, want.Billed)
		}
	}
	return d, nil
}
