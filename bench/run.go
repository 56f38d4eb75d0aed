package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// options are one invocation's arguments.
type options struct {
	workload string
	seed     int64
	// seconds of fixed work in the measured window.
	seconds float64
	trace   bool
	// benchmark is the path of BENCHMARK.json and bf its content: the run
	// length, every metric's unit, the bounds.
	benchmark string
	bf        *benchmarkFile
	// scale < 1 cuts warm-up, preload and replay sizes (smoke test only).
	scale float64
	// tmp holds the data dirs, out the span files.
	tmp, out string
	// dropOne leaves one acknowledged stream out of the harness's books
	// (smoke test only): the correctness gate must notice.
	dropOne bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmarkFile is what the harness reads of BENCHMARK.json.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// withUnits picks the listed metrics out of values and gives each the
// unit BENCHMARK.json states, so a result line holds exactly what the
// file lists; moving a metric between its two lists needs no code.
func (bf *benchmarkFile) withUnits(list []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(list))
	for _, def := range list {
		v, ok := values[def.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists %s, which this pass does not measure", def.Name)
		}
		out[def.Name] = metric{v, def.Unit}
	}
	return out, nil
}

// setUp makes the inputs from the seed, starts a fresh system under test
// on a fresh data dir and preloads it. Its duration is setup_s.
func setUp(sp spec, seed int64, tmp string) (*run, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, err
	}
	r := &run{sp: sp, seed: seed, dir: dir, hc: newClient()}
	if r.in, err = newInputs(sp, seed); err != nil {
		r.tearDown()
		return nil, err
	}
	r.sent = make([]atomic.Int64, len(r.in.streams))
	r.quoteSent = make([]atomic.Int64, len(r.in.quotes))
	if r.sut, err = startSUT(sp, r.in.cal, dir); err != nil {
		r.tearDown()
		return nil, err
	}
	pre, err := preloadStreams(r.in, sp, seed)
	if err != nil {
		r.tearDown()
		return nil, err
	}
	for i := range pre {
		if !r.postStream(opStream, &pre[i], fmt.Sprintf("pre%d-%d", seed, i)) {
			r.tearDown()
			return nil, fmt.Errorf("preload stream %d was not fully accepted", i)
		}
		r.accepted.Add(int64(len(pre[i].records)))
	}
	return r, nil
}

// stopSUT drains and closes the system under test. The client's idle
// connections close first: one it dialled and never used would hold
// http.Server.Shutdown for five seconds.
func (r *run) stopSUT() error {
	if r.sut == nil {
		return nil
	}
	r.hc.CloseIdleConnections()
	err := r.sut.stop()
	r.sut = nil
	return err
}

// tearDown stops the system under test and removes its data dir.
func (r *run) tearDown() {
	if err := r.stopSUT(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: stopping: %v\n", err)
	}
	os.RemoveAll(r.dir)
}

// verify is the correctness gate on the service's books, run after the
// traffic has stopped: the tenants listing (through the router when there
// is one) must add up to exactly the records acknowledged plus the quotes
// billed, and for 32 seeded tenants the statement must equal what core
// prices for the records this run generated and saw acknowledged. It
// returns those tenants' statements.
func (r *run) verify() map[string]api.StatementResponse {
	var listed int64
	for cursor := ""; ; {
		var page api.TenantPage
		if err := r.call(opTenants, http.MethodGet, "/v3/tenants?limit=1000&cursor="+url.QueryEscape(cursor), "", "", nil, &page); err != nil {
			r.tally.check(false, "listing tenants: %v", err)
			break
		}
		for _, t := range page.Tenants {
			listed += t.Invocations
		}
		if cursor = page.NextCursor; cursor == "" {
			break
		}
	}
	want := r.accepted.Load() + r.quotesBilled.Load()
	r.tally.check(listed == want, "tenants listing bills %d invocations, acknowledged %d", listed, want)

	statements := map[string]api.StatementResponse{}
	rng := rand.New(rand.NewSource(r.seed ^ 0x7e57))
	for _, i := range rng.Perm(len(r.in.tenants))[:min(32, len(r.in.tenants))] {
		tenant := r.in.tenants[i]
		var want bill
		for s := range r.in.streams {
			if b, ok := r.in.streams[s].bills[tenant]; ok {
				want.add(b, r.sent[s].Load())
			}
		}
		for q := range r.in.quotes {
			if r.in.quotes[q].tenant == tenant {
				want.add(r.in.quotes[q].bill, r.quoteSent[q].Load())
			}
		}
		var st api.StatementResponse
		err := r.call(opStatement, http.MethodGet, "/v3/tenants/"+url.PathEscape(tenant)+"/statement", "", "", nil, &st)
		ok := err == nil && st.Invocations == want.n && closeTo(st.Commercial, want.commercial) && closeTo(st.Billed, want.billed)
		r.tally.check(ok, "statement %s: %v: %d invocations billed %v, core prices %d billed %v",
			tenant, err, st.Invocations, st.Billed, want.n, want.billed)
		if ok {
			statements[tenant] = st
		}
	}
	return statements
}

// peakRSSMB reads the process's resident-set high-water mark, in MB.
func peakRSSMB() float64 {
	status, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func endToEnd(w *window, sp spec, setupS float64) map[string]float64 {
	// quantile reads milliseconds; a segment holds segRecords records.
	segRecords := float64(segStreams * sp.records)
	return map[string]float64{
		"setup_s":            setupS,
		"peak_records_per_s": segRecords / (quantile(w.segWall, floorQ) / 1e3),
		"stream_floor_ms":    quantile(w.lat[opStream], floorQ),
		"statement_floor_ms": quantile(w.lat[opStatement], floorQ),
		"allocs_per_record":  float64(w.mem1.Mallocs-w.mem0.Mallocs) / float64(w.records),
		"records_per_s":      float64(w.records) / w.wall.Seconds(),
		"cpu_us_per_record":  float64(w.cpu.Microseconds()) / float64(w.records),
		"stream_p50_ms":      quantile(w.lat[opStream], 0.50),
		"stream_p90_ms":      quantile(w.lat[opStream], 0.90),
		"quote_p50_ms":       quantile(w.lat[opQuote], 0.50),
		"statement_p50_ms":   quantile(w.lat[opStatement], 0.50),
		"tenants_p50_ms":     quantile(w.lat[opTenants], 0.50),
		"within_slo_share":   float64(w.within) / float64(w.attempted),
		"peak_rss_mb":        peakRSSMB(),
	}
}

// setUps is how many times a plain run sets up. The driver's contract asks
// for several and their median as setup_s: a closed loop's set-up is a
// quarter of a second of work, and one reading of it moves by a fifth.
const setUps = 5

// runWorkload executes one workload once and returns its result line.
func runWorkload(o options) (*result, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	sp = sp.scaled(o.scale)
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var r *run
	var setups []float64
	n := setUps
	if o.trace || o.scale < 1 {
		n = 1 // the per-layer pass and the smoke test report no set-up time
	}
	for i := 0; i < n; i++ {
		if r != nil {
			// Collect what the torn-down set-up leaves behind, or five
			// set-ups' garbage would be the process's peak memory.
			r.tearDown()
			runtime.GC()
		}
		t0 := time.Now()
		if r, err = setUp(sp, o.seed, o.tmp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { r.tearDown() }()
	runtime.GC()
	// The warm-up is fixed work too; its timings are discarded.
	r.closedLoop(runtime.GOMAXPROCS(0), int64(sp.warmup))
	r.dropOne.Store(o.dropOne)

	var values map[string]float64
	list := o.bf.EndToEnd
	if o.trace {
		list = o.bf.PerLayer
		if values, err = r.tracedPass(o); err != nil {
			return nil, err
		}
	} else {
		w, err := r.measure(o.seconds)
		if err != nil {
			return nil, err
		}
		r.verify()
		setupS := setups[0]
		if len(setups) > 1 {
			_, setupS, _ = quartiles(setups)
		}
		values = endToEnd(w, r.sp, setupS)
	}
	res := &result{}
	res.Attempted, res.Failed = r.tally.totals()
	res.Correct = res.Failed == 0
	values["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	if res.Metrics, err = o.bf.withUnits(list, values); err != nil {
		return nil, err
	}
	return res, nil
}
