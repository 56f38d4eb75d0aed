package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/api"
	"repro/internal/ledger"
)

// replay is the stage replay: each layer's public functions called
// directly on a seeded sample of the workload's streams, one span per
// call under one root, so stage costs can be laid beside the in-memory
// handler time and the loopback time of the very same inputs.
type replay struct {
	r      *run
	tr     *tracer
	root   int64
	sample []int // pool slots
	// reps repeats the sample until about 100 000 records have passed a
	// per-record stage.
	reps int
	// entries are the sample's records priced into ledger entries
	// (without keys), per pool slot; tenants are the tenants they bill.
	entries map[int][]ledger.Entry
	tenants []string
	seq     int
}

// replayBatch is the run length the stream collector bills in:
// internal/api's unexported accrueBatchSize, which the smoke test reads
// from source so that the two cannot drift apart.
const replayBatch = 256

func newReplay(r *run, tr *tracer, scale float64) (*replay, error) {
	p := &replay{r: r, tr: tr, entries: map[int][]ledger.Entry{}}
	n := max(4, int(200*min(scale, 1)))
	p.sample = rand.New(rand.NewSource(r.seed ^ 0x7ace)).Perm(len(r.in.streams))[:n]
	p.reps = max(1, int(100_000*min(scale, 1))/(n*r.sp.records))
	for _, slot := range p.sample {
		st := &r.in.streams[slot]
		es := make([]ledger.Entry, len(st.records))
		for i, rec := range st.records {
			b, err := priceOf(r.in.pricer, rec.Usage)
			if err != nil {
				return nil, err
			}
			es[i] = ledger.Entry{Tenant: rec.Tenant, Pricer: api.DefaultPricer, Minute: rec.Minute,
				Commercial: b.commercial, Price: b.billed}
		}
		p.entries[slot] = es
		for t := range st.bills {
			p.tenants = append(p.tenants, t)
		}
	}
	return p, nil
}

// each runs one stage once per sampled stream, reps times over, one span
// per call. stage prepares a call untimed and returns the call itself,
// which reports how many items (records) it covered. each returns the
// time spent inside the calls and the items they covered.
func (p *replay) each(name string, reps int, stage func(slot int, st *stream, key string) func() (int, error)) (time.Duration, int, error) {
	var total time.Duration
	items := 0
	for rep := 0; rep < reps; rep++ {
		for _, slot := range p.sample {
			p.seq++
			call := stage(slot, &p.r.in.streams[slot], fmt.Sprintf("replay%d-%d", p.r.seed, p.seq))
			id := p.tr.begin(name, p.root, int64(slot))
			t0 := time.Now()
			n, err := call()
			total += time.Since(t0)
			p.tr.end(id, n)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
			items += n
		}
	}
	return total, items, nil
}

// times runs call n times, one span each, and returns the mean in
// microseconds.
func (p *replay) times(name string, n int, call func(i int) error) (float64, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		id := p.tr.begin(name, p.root, int64(i))
		t0 := time.Now()
		err := call(i)
		total += time.Since(t0)
		p.tr.end(id, 1)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return float64(total.Microseconds()) / float64(n), nil
}

// keyed copies a sampled stream's entries under the per-line keys the
// ingest path derives from a stream key.
func (p *replay) keyed(slot int, key string) []ledger.Entry {
	es := append([]ledger.Entry(nil), p.entries[slot]...)
	for i := range es {
		es[i].Key = fmt.Sprintf("%s#%d", key, i+1)
	}
	return es
}

// accrueBatches bills entries in the collector's run length; every entry
// must come back Accrued.
func accrueBatches(led *ledger.Ledger, es []ledger.Entry) (int, error) {
	var results [replayBatch]ledger.AccrualResult
	for off := 0; off < len(es); off += replayBatch {
		chunk := es[off:min(off+replayBatch, len(es))]
		//litmus:allow-accrue stage replay: times the ledger's public functions on a scratch ledger of its own
		led.AccrueBatch(chunk, results[:len(chunk)])
		for i := range chunk {
			if results[i].Err != nil || results[i].Outcome != ledger.Accrued {
				return 0, fmt.Errorf("entry %d: %v %v", off+i, results[i].Outcome, results[i].Err)
			}
		}
	}
	return len(es), nil
}

func newLedger(dir string, fsync ledger.FsyncMode) (*ledger.Ledger, error) {
	// Explicit snapshots only, so a stage's WAL bytes are all its own.
	return ledger.New(ledger.Config{MaxTenants: api.DefaultMaxTenants, Dir: dir, Fsync: fsync, SnapshotEvery: -1})
}

// serveStream hands one stream to a handler in memory.
func serveStream(h http.Handler, st *stream, key string) (int, error) {
	req := httptest.NewRequest(http.MethodPost, "/v3/usage", bytes.NewReader(st.body))
	req.Header.Set("Content-Type", st.wire.ContentType())
	req.Header.Set("Idempotency-Key", key)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Len(), nil
}

func serveGet(h http.Handler, path string) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return nil
}

// handler times h over the sample in memory. It returns microseconds per
// stream, allocations per record beyond those of building the request and
// the recorder, and response bytes per stream.
func (p *replay) handler(name string, h http.Handler) (us, allocs, bytesOut float64, err error) {
	mallocs := func(name string, h http.Handler) (time.Duration, int, uint64, int, error) {
		var m0, m1 runtime.MemStats
		out := 0
		runtime.ReadMemStats(&m0)
		d, n, err := p.each(name, p.reps, func(_ int, st *stream, key string) func() (int, error) {
			return func() (int, error) {
				b, err := serveStream(h, st, key)
				out += b
				return len(st.records), err
			}
		})
		runtime.ReadMemStats(&m1)
		return d, n, m1.Mallocs - m0.Mallocs, out, err
	}
	nop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	_, _, base, _, err := mallocs("harness.request", nop)
	if err != nil {
		return 0, 0, 0, err
	}
	d, n, total, out, err := mallocs(name, h)
	if err != nil {
		return 0, 0, 0, err
	}
	streams := float64(p.reps * len(p.sample))
	return float64(d.Microseconds()) / streams, (float64(total) - float64(base)) / float64(n), float64(out) / streams, nil
}

// ledgerReads times statements and tenant pages on a ledger of n
// one-record tenants plus the sample's own tenants and windows.
func (p *replay) ledgerReads(n int) (statementUS, pageUS float64, err error) {
	led, err := filledLedger(n)
	if err != nil {
		return 0, 0, err
	}
	for _, slot := range p.sample {
		if _, err := accrueBatches(led, p.entries[slot]); err != nil {
			return 0, 0, err
		}
	}
	statementUS, err = p.times(fmt.Sprintf("ledger.statement.%d", n), len(p.tenants), func(i int) error {
		if _, ok := led.Statement(p.tenants[i], 0, -1); !ok {
			return fmt.Errorf("no statement for %s", p.tenants[i])
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	pageUS, err = p.times(fmt.Sprintf("ledger.tenants_page.%d", n), 200, func(i int) error {
		if page, _ := led.Tenants(fmt.Sprintf("p%05d", scatter(int64(i), n-200)), 100); len(page) != 100 {
			return fmt.Errorf("page of %d", len(page))
		}
		return nil
	})
	return statementUS, pageUS, err
}

// filledLedger is a volatile ledger holding n one-record tenants named
// like the preload's.
func filledLedger(n int) (*ledger.Ledger, error) {
	led, err := newLedger("", 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		e := ledger.Entry{Tenant: fmt.Sprintf("p%05d", i), Pricer: api.DefaultPricer, Minute: i % minuteSet, Commercial: 1, Price: 1}
		//litmus:allow-accrue fills a scratch ledger with tenants for the read stages
		if out, err := led.Accrue(e); err != nil || out != ledger.Accrued {
			return nil, fmt.Errorf("filling tenant %d: %v %v", i, out, err)
		}
	}
	return led, nil
}

// stages runs every stage the workload exercises and sets its metrics;
// the stages it bypasses keep their 0.
func (p *replay) stages(set func(string, float64)) error {
	sp, in := p.r.sp, p.r.in
	p.root = p.tr.begin("replay", 0, 0)
	defer p.tr.end(p.root, 0)
	perItem := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
	// budget sums the per-record stage costs the ingest handler is made of.
	budget := 0.0

	// core: the litmus pricer on every record.
	d, n, err := p.each("core.quote", p.reps, func(_ int, st *stream, _ string) func() (int, error) {
		return func() (int, error) {
			for i := range st.records {
				if _, err := in.pricer.Quote(st.records[i].Usage); err != nil {
					return 0, err
				}
			}
			return len(st.records), nil
		}
	})
	if err != nil {
		return err
	}
	set("core.quote_ns", perItem(d, n))
	budget += perItem(d, n)

	// api: the wire format's decode (and, for frames, the encode the
	// router repeats per owner).
	if sp.wire == api.WireFrames {
		fr := api.NewFrameReader(bytes.NewReader(nil), api.DefaultMaxBodyBytes)
		dec := &api.FrameDecoder{}
		d, n, err = p.each("api.frames_decode", p.reps, func(_ int, st *stream, _ string) func() (int, error) {
			return func() (int, error) {
				fr.Reset(bytes.NewReader(st.body))
				for n := 0; ; n++ {
					payload, crc, err := fr.Next()
					if err == io.EOF {
						return n, nil
					}
					if err != nil {
						return 0, err
					}
					if _, apiErr := dec.Decode(payload, crc); apiErr != nil {
						return 0, apiErr
					}
				}
			}
		})
		if err != nil {
			return err
		}
		set("api.frames_decode_ns_per_record", perItem(d, n))
		budget += perItem(d, n)
		d, n, err = p.each("api.frames_encode", p.reps, func(_ int, st *stream, _ string) func() (int, error) {
			return func() (int, error) {
				_, err := api.EncodeUsageStream(api.WireFrames, st.records)
				return len(st.records), err
			}
		})
		if err != nil {
			return err
		}
		set("api.frames_encode_ns_per_record", perItem(d, n))
	} else {
		d, n, err = p.each("api.ndjson_decode", p.reps, func(_ int, st *stream, _ string) func() (int, error) {
			return func() (int, error) {
				n := 0
				for _, line := range bytes.Split(st.body, []byte{'\n'}) {
					if len(line) == 0 {
						continue
					}
					var rec api.UsageRecord
					if err := json.Unmarshal(line, &rec); err != nil {
						return 0, err
					}
					n++
				}
				return n, nil
			}
		})
		if err != nil {
			return err
		}
		set("api.ndjson_decode_ns_per_record", perItem(d, n))
		budget += perItem(d, n)
	}

	// ledger: batched and single accrual on a volatile ledger under the
	// keys the ingest path would derive.
	led, err := newLedger("", 0)
	if err != nil {
		return err
	}
	d, n, err = p.each("ledger.accrue_batch", p.reps, func(slot int, _ *stream, key string) func() (int, error) {
		es := p.keyed(slot, key)
		return func() (int, error) { return accrueBatches(led, es) }
	})
	if err != nil {
		return err
	}
	volatileNs := perItem(d, n)
	set("ledger.accrue_batch_ns_per_record", volatileNs)
	budget += volatileNs
	d, n, err = p.each("ledger.accrue", p.reps, func(slot int, _ *stream, key string) func() (int, error) {
		es := p.keyed(slot, key)[:min(32, len(p.entries[slot]))]
		return func() (int, error) {
			for i := range es {
				//litmus:allow-accrue stage replay: times the ledger's public functions on a scratch ledger of its own
				if out, err := led.Accrue(es[i]); err != nil || out != ledger.Accrued {
					return 0, fmt.Errorf("%v %v", out, err)
				}
			}
			return len(es), nil
		}
	})
	if err != nil {
		return err
	}
	set("ledger.accrue_ns", perItem(d, n))

	// admission: the retry peek and the token bucket every record passes,
	// alone and with one caller per processor.
	if sp.admission {
		d, n, err = p.each("ledger.seen", p.reps, func(slot int, _ *stream, key string) func() (int, error) {
			es := p.keyed(slot, key)
			return func() (int, error) {
				for i := range es {
					if led.Seen(es[i].Tenant, es[i].Key) {
						return 0, fmt.Errorf("fresh key %s already seen", es[i].Key)
					}
				}
				return len(es), nil
			}
		})
		if err != nil {
			return err
		}
		set("ledger.seen_ns", perItem(d, n))
		budget += perItem(d, n)

		ctl := admission.New(admission.Config{Rate: admissionRate, Stats: led})
		defer ctl.Close()
		allow := func(_ int, st *stream, _ string) func() (int, error) {
			return func() (int, error) {
				for i := range st.records {
					if ok, _ := ctl.Allow(st.records[i].Tenant); !ok {
						return 0, fmt.Errorf("tenant %s throttled", st.records[i].Tenant)
					}
				}
				return len(st.records), nil
			}
		}
		d, n, err = p.each("admission.allow", p.reps, allow)
		if err != nil {
			return err
		}
		set("admission.allow_ns", perItem(d, n))
		budget += perItem(d, n)
		var wg sync.WaitGroup
		callers := runtime.GOMAXPROCS(0)
		id := p.tr.begin("admission.allow_contended", p.root, 0)
		t0 := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < p.reps; rep++ {
					for _, slot := range p.sample {
						for i := range in.streams[slot].records {
							ctl.Allow(in.streams[slot].records[i].Tenant)
						}
					}
				}
			}()
		}
		wg.Wait()
		set("admission.allow_ns_contended", perItem(time.Since(t0), n))
		p.tr.end(id, n*callers)
	}

	// api: the whole ingest handler in memory, on a volatile ledger that
	// holds the preload's tenants; then the read handlers on what it
	// billed.
	plainLed, err := filledLedger(sp.preload)
	if err != nil {
		return err
	}
	plain, err := api.New(api.Config{Calibration: in.cal, Ledger: plainLed})
	if err != nil {
		return err
	}
	wire := sp.wire.String()
	if wire == "binary" {
		wire = "frames"
	}
	plainUS, allocs, bytesOut, err := p.handler("api.handler", plain)
	if err != nil {
		return err
	}
	handlerUS := plainUS
	set("api.handler_us_per_stream."+wire, plainUS)
	set("api.handler_allocs_per_record."+wire, allocs)
	set("api.response_bytes_per_stream", bytesOut)
	if sp.admission {
		gatedLed, err := filledLedger(sp.preload)
		if err != nil {
			return err
		}
		gated, err := api.New(api.Config{Calibration: in.cal, Ledger: gatedLed, AdmissionRate: admissionRate})
		if err != nil {
			return err
		}
		gatedUS, _, _, err := p.handler("api.handler.admission", gated)
		if cerr := gated.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		set("admission.handler_delta_us_per_stream", gatedUS-plainUS)
		handlerUS = gatedUS
	}
	set("trace.unaccounted_share", 1-budget*float64(sp.records)/(handlerUS*1000))

	us, err := p.times("api.statement_handler", len(p.tenants), func(i int) error {
		return serveGet(plain, "/v3/tenants/"+p.tenants[i]+"/statement")
	})
	if err != nil {
		return err
	}
	set("api.statement_handler_us", us)
	us, err = p.times("api.tenants_handler", 200, func(i int) error {
		cursor := p.tenants[i%len(p.tenants)]
		if sp.preload > 200 {
			cursor = fmt.Sprintf("p%05d", scatter(int64(i), sp.preload-200))
		}
		return serveGet(plain, "/v3/tenants?limit=100&cursor="+cursor)
	})
	if err != nil {
		return err
	}
	set("api.tenants_handler_us", us)
	if len(in.quotes) > 0 {
		us, err = p.times("api.quote_handler", len(in.quotes), func(i int) error {
			req := httptest.NewRequest(http.MethodPost, "/v2/quote", bytes.NewReader(in.quotes[i].body))
			rec := httptest.NewRecorder()
			plain.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d", rec.Code)
			}
			return nil
		})
		if err != nil {
			return err
		}
		set("api.quote_handler_us", us)
	}

	// ledger: reads at the two tenant counts the workloads run at.
	for _, tn := range []int{4096, 50000} {
		stUS, pgUS, err := p.ledgerReads(tn)
		if err != nil {
			return err
		}
		set(fmt.Sprintf("ledger.statement_us.%d", tn), stUS)
		set(fmt.Sprintf("ledger.tenants_page_us.%d", tn), pgUS)
	}

	// transport: the same streams over a loopback connection to a node
	// like the in-memory one, one at a time.
	ls, err := startSUT(spec{wire: sp.wire}, in.cal, "")
	if err != nil {
		return err
	}
	d, _, err = p.each("http.loopback", 1, func(_ int, st *stream, key string) func() (int, error) {
		return func() (int, error) {
			var resp api.UsageStreamResponse
			err := p.r.callURL(ls.url, opStream, http.MethodPost, "/v3/usage", st.wire.ContentType(), key, st.body, &resp)
			if err == nil && resp.Accepted != len(st.records) {
				err = fmt.Errorf("accepted %d of %d", resp.Accepted, len(st.records))
			}
			return len(st.records), err
		}
	})
	if serr := ls.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	set("http.loopback_us_per_stream", float64(d.Microseconds())/float64(len(p.sample))-plainUS)

	// WAL: the same batched accrual on a durable ledger in the workload's
	// sync mode, less the volatile cost; then one compacting snapshot.
	if sp.fsync != "" {
		mode, err := ledger.ParseFsyncMode(sp.fsync)
		if err != nil {
			return err
		}
		dled, err := newLedger(filepath.Join(p.r.dir, "replay-wal"), mode)
		if err != nil {
			return err
		}
		reps := p.reps
		if mode == ledger.FsyncAlways {
			reps = 1 // every batch waits for its fsyncs
		}
		d, n, err = p.each("ledger.accrue_batch.durable", reps, func(slot int, _ *stream, key string) func() (int, error) {
			es := p.keyed(slot, key)
			return func() (int, error) { return accrueBatches(dled, es) }
		})
		if err != nil {
			//litmus:close-ok the stage already failed; its error is the one to report
			dled.Close()
			return err
		}
		set("wal.append_ns_per_record."+sp.fsync, perItem(d, n)-volatileNs)
		set("wal.bytes_per_record", float64(dled.Durability().WALBytes)/float64(n))
		id := p.tr.begin("wal.snapshot", p.root, 0)
		t0 := time.Now()
		serr := dled.Snapshot()
		snap := time.Since(t0)
		p.tr.end(id, n)
		if cerr := dled.Close(); serr == nil {
			serr = cerr
		}
		if serr != nil {
			return serr
		}
		set("wal.snapshot_ms", float64(snap.Microseconds())/1000)
	}

	// cluster: ring lookups, the router in memory over three loopback
	// nodes in both wire formats, and the ring-aware client that skips
	// the router, on the same streams.
	if sp.routed {
		cs, err := startSUT(spec{wire: sp.wire, routed: true}, in.cal, "")
		if err != nil {
			return err
		}
		defer cs.stop()
		ring := cs.ring.Ring()
		owners := 0
		d, n, err = p.each("cluster.ring_owner", p.reps, func(_ int, st *stream, _ string) func() (int, error) {
			return func() (int, error) {
				seen := map[string]bool{}
				for i := range st.records {
					seen[ring.Owner(st.records[i].Tenant).Name] = true
				}
				owners += len(seen)
				return len(st.records), nil
			}
		})
		if err != nil {
			return err
		}
		streams := float64(p.reps * len(p.sample))
		set("cluster.ring_owner_ns", perItem(d, n))
		set("cluster.owners_per_stream", float64(owners)/streams)
		routedUS, _, _, err := p.handler("cluster.router.frames", cs.front)
		if err != nil {
			return err
		}
		set("cluster.router_us_per_stream.frames", routedUS)
		d, _, err = p.each("cluster.router.ndjson", 1, func(_ int, st *stream, key string) func() (int, error) {
			twin, err := newStream(in.pricer, api.WireNDJSON, st.records)
			return func() (int, error) {
				if err != nil {
					return 0, err
				}
				_, err := serveStream(cs.front, &twin, key)
				return len(st.records), err
			}
		})
		if err != nil {
			return err
		}
		set("cluster.router_us_per_stream.ndjson", float64(d.Microseconds())/float64(len(p.sample)))
		cs.ring.SetWire(api.WireFrames)
		d, _, err = p.each("cluster.client_stream", p.reps, func(_ int, st *stream, key string) func() (int, error) {
			return func() (int, error) {
				resp, err := cs.ring.StreamUsage(context.Background(), key, st.records)
				if err == nil && resp.Accepted != len(st.records) {
					err = fmt.Errorf("accepted %d of %d", resp.Accepted, len(st.records))
				}
				return len(st.records), err
			}
		})
		if err != nil {
			return err
		}
		clientUS := float64(d.Microseconds()) / streams
		set("cluster.client_stream_us", clientUS)
		set("cluster.hop_overhead_us_per_stream", routedUS-clientUS)
	}
	return nil
}
