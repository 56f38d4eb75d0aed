package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/loadgen"
	"repro/internal/trace"
)

type opKind int

const (
	opStream opKind = iota
	opRetry
	opQuote
	opStatement
	opTenants
	numOps
)

var opNames = [numOps]string{"stream", "retry", "quote", "statement", "tenants"}

// run is the state of one workload execution: the inputs, the system under
// test, the client, and the account of what was sent and acknowledged that
// the correctness gate later checks against the service's own books.
type run struct {
	sp   spec
	seed int64
	in   *inputs
	sut  *sut
	dir  string
	hc   *http.Client
	// tr is nil except during the traced window and the stage replay.
	tr *tracer

	// nextStream numbers usage streams; a stream's idempotency key is made
	// from its number, so every send carries fresh per-line keys without
	// re-encoding the body.
	nextStream atomic.Int64
	nextReq    atomic.Int64

	// sent and quoteSent count acknowledged sends per pool entry; accepted
	// and quotesBilled are the matching record totals over all phases.
	sent         []atomic.Int64
	quoteSent    []atomic.Int64
	accepted     atomic.Int64
	quotesBilled atomic.Int64
	// dropOne makes the next acknowledged stream skip its accounting: the
	// smoke test's proof that the correctness gate trips.
	dropOne atomic.Bool

	tally tally
}

// tally is the books of timed requests and checks that the generator's
// goroutines share.
type tally struct {
	mu                        sync.Mutex
	lat                       [numOps][]time.Duration
	late                      []time.Duration
	attempted, failed, within int64
	notes                     int
	// streams counts answered usage streams; every segStreams-th one
	// leaves a mark, and two marks bound one segment of the window.
	streams int64
	marks   []time.Time
}

// newClient is the generator's HTTP client. Its idle connections time out
// well inside the server's ReadHeaderTimeout (5 s, as cmd/pricingd sets
// it): a connection dialled during a burst and never used is closed by the
// server at that age, and a POST without an idempotency key (/v2/quote)
// that picks it up at that instant fails with a reset instead of being
// replayed by the transport.
func newClient() *http.Client {
	tr := api.DefaultTransport()
	tr.IdleConnTimeout = 2 * time.Second
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// note prints the first few failures; a healthy run prints none.
func (t *tally) note(format string, args ...any) {
	t.mu.Lock()
	t.notes++
	n := t.notes
	t.mu.Unlock()
	if n <= 8 {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

// check books a check that is not a timed request; a failed one says why.
func (t *tally) check(ok bool, format string, args ...any) {
	if !ok {
		t.note(format, args...)
	}
	t.mu.Lock()
	t.attempted++
	if !ok {
		t.failed++
	}
	t.mu.Unlock()
}

// observe books one timed request. from is when it was sent (closed loop)
// or due (open loop); a failed request misses the latency limit.
func (t *tally) observe(op opKind, from time.Time, ok bool) {
	d := time.Since(from)
	t.mu.Lock()
	t.lat[op] = append(t.lat[op], d)
	if op == opStream {
		if t.streams++; t.streams%segStreams == 0 {
			t.marks = append(t.marks, time.Now())
		}
	}
	t.attempted++
	if !ok {
		t.failed++
	} else if d <= sloMs*time.Millisecond {
		t.within++
	}
	t.mu.Unlock()
}

// left books how long after its due time an open-loop request left.
func (t *tally) left(late time.Duration) {
	t.mu.Lock()
	t.late = append(t.late, late)
	t.mu.Unlock()
}

// totals are the attempts and failures of the whole run so far.
func (t *tally) totals() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// cut hands over the samples booked since the last cut, sorted, and
// starts afresh with a first mark at now; the run's totals keep counting.
func (t *tally) cut() (lat [numOps][]time.Duration, late []time.Duration, marks []time.Time, within int64) {
	t.mu.Lock()
	lat, late, marks, within = t.lat, t.late, t.marks, t.within
	t.lat, t.late, t.within = [numOps][]time.Duration{}, nil, 0
	t.streams, t.marks = 0, []time.Time{time.Now()}
	t.mu.Unlock()
	for op := range lat {
		sortDurations(lat[op])
	}
	sortDurations(late)
	return lat, late, marks, within
}

// timed sends one closed-loop request and books it from now.
func (r *run) timed(op opKind, send func() bool) {
	t0 := time.Now()
	r.tally.observe(op, t0, send())
}

// call is one HTTP exchange with the front door, decoded into out. When
// tracing it records request → http.roundtrip → decode_response.
func (r *run) call(op opKind, method, path, ctype, key string, body []byte, out any) error {
	return r.callURL(r.sut.url, op, method, path, ctype, key, body, out)
}

func (r *run) callURL(base string, op opKind, method, path, ctype, key string, body []byte, out any) error {
	req := r.nextReq.Add(1)
	root := r.tr.begin("request."+opNames[op], 0, req)
	defer r.tr.end(root, 0)
	hr, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		hr.Header.Set("Content-Type", ctype)
	}
	if key != "" {
		hr.Header.Set("Idempotency-Key", key)
	}
	rt := r.tr.begin("http.roundtrip", root, req)
	resp, err := r.hc.Do(hr)
	r.tr.end(rt, 0)
	if err != nil {
		return err
	}
	dc := r.tr.begin("decode_response", root, req)
	defer r.tr.end(dc, 0)
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

// postStream sends st under key and checks the response accounting: every
// line Accepted, or every line Duplicate when the key was billed before.
// Booking an accepted stream is the caller's.
func (r *run) postStream(op opKind, st *stream, key string) bool {
	var resp api.UsageStreamResponse
	if err := r.call(op, http.MethodPost, "/v3/usage", st.wire.ContentType(), key, st.body, &resp); err != nil {
		r.tally.note("%v", err)
		return false
	}
	n := len(st.records)
	wantAcc, wantDup := n, 0
	if op == opRetry {
		wantAcc, wantDup = 0, n
	}
	if resp.Lines != n || resp.Accepted != wantAcc || resp.Duplicates != wantDup ||
		resp.Rejected+resp.Dropped+resp.Throttled != 0 || resp.StreamError != "" {
		r.tally.note("stream %s: lines %d accepted %d duplicates %d rejected %d dropped %d throttled %d %q, want %d/%d",
			key, resp.Lines, resp.Accepted, resp.Duplicates, resp.Rejected, resp.Dropped, resp.Throttled, resp.StreamError, wantAcc, wantDup)
		return false
	}
	return true
}

func (r *run) streamKey(id int64) string { return fmt.Sprintf("s%d-%d", r.seed, id) }

// sendStream posts pool stream id under the key of id.
func (r *run) sendStream(op opKind, id int64) bool {
	slot := id % int64(len(r.in.streams))
	st := &r.in.streams[slot]
	ok := r.postStream(op, st, r.streamKey(id))
	if ok && op == opStream && !r.dropOne.CompareAndSwap(true, false) {
		r.sent[slot].Add(1)
		r.accepted.Add(int64(len(st.records)))
	}
	return ok
}

// scatter maps a request number to a well-spread index below n.
func scatter(id int64, n int) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15 >> 33) % uint64(n))
}

func (r *run) readStatement(id int64) bool {
	tenant := r.in.tenants[scatter(id, len(r.in.tenants))]
	var st api.StatementResponse
	err := r.call(opStatement, http.MethodGet, "/v3/tenants/"+url.PathEscape(tenant)+"/statement", "", "", nil, &st)
	if err != nil || st.Tenant != tenant || st.Invocations <= 0 {
		r.tally.note("statement %s: %v (invocations %d)", tenant, err, st.Invocations)
		return false
	}
	return true
}

func (r *run) readTenants(id int64) bool {
	// The cursor is never the last tenant, so a page always has rows.
	cursor := r.in.tenants[scatter(id, len(r.in.tenants)-1)]
	if r.sp.preload > 200 {
		cursor = fmt.Sprintf("p%05d", scatter(id, r.sp.preload-200))
	}
	var page api.TenantPage
	err := r.call(opTenants, http.MethodGet, "/v3/tenants?limit=100&cursor="+url.QueryEscape(cursor), "", "", nil, &page)
	if err != nil || len(page.Tenants) == 0 || page.Tenants[0].Tenant <= cursor {
		r.tally.note("tenants after %s: %v (%d rows)", cursor, err, len(page.Tenants))
		return false
	}
	return true
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1)
}

func (r *run) sendQuote(idx int64) bool {
	q := &r.in.quotes[idx]
	var resp api.QuoteResponse
	err := r.call(opQuote, http.MethodPost, "/v2/quote", "application/json", "", q.body, &resp)
	if err != nil || !closeTo(resp.Price, q.bill.billed) || !closeTo(resp.Commercial, q.bill.commercial) {
		r.tally.note("quote %d: %v (price %v want %v)", idx, err, resp.Price, q.bill.billed)
		return false
	}
	r.quoteSent[idx].Add(1)
	r.quotesBilled.Add(1)
	return true
}

// closedLoop sends the next n streams over conns connections: each sends
// its next stream only after the previous answer, and after every
// readEvery streams reads one statement and one tenants page. Reads start
// after the warm-up, which acknowledges every pool stream, so every tenant
// they name exists.
func (r *run) closedLoop(conns int, n int64) {
	limit := r.nextStream.Load() + n
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent := 1; ; sent++ {
				id := r.nextStream.Add(1) - 1
				if id >= limit {
					return
				}
				r.timed(opStream, func() bool { return r.sendStream(opStream, id) })
				if sent%readEvery == 0 && id >= int64(r.sp.warmup) {
					r.timed(opStatement, func() bool { return r.readStatement(id) })
					r.timed(opTenants, func() bool { return r.readTenants(id) })
				}
			}
		}()
	}
	wg.Wait()
	// Each connection drew one number past the limit and did not send it.
	r.nextStream.Store(limit)
}

// arrival is one planned open-loop request.
type arrival struct {
	due  time.Duration
	kind opKind
	// id is the stream number (fresh, or the earlier one a retry repeats),
	// the quote pool index, or the selector of a read's target.
	id int64
}

// retryLag keeps a retry behind the stream it repeats by more than any
// latency, so the first send has been billed when the retry lands.
const retryLag = 2 * time.Second

// mix is the open-loop traffic mix in percent of arrivals.
var mix = [numOps]int{opStream: 55, opRetry: 5, opQuote: 20, opStatement: 10, opTenants: 10}

// plan lays out the open-loop window: Poisson arrivals at the workload's
// rate (loadgen fixes the count per second and scatters the instants), and
// the mix dealt out exactly — every run of a given length sends the same
// number of each kind, in seeded order.
func (r *run) plan(seconds float64) ([]arrival, error) {
	dur := time.Duration(seconds * float64(time.Second))
	offs, err := loadgen.Schedule{{Rate: r.sp.rate, Duration: dur}}.Arrivals(trace.Poisson, r.seed)
	if err != nil {
		return nil, err
	}
	first := r.nextStream.Load()
	rng := rand.New(rand.NewSource(r.seed ^ first))
	kinds := make([]opKind, len(offs))
	for i := range kinds {
		for pct := i % 100; ; kinds[i]++ {
			if pct -= mix[kinds[i]]; pct < 0 {
				break
			}
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var fresh []time.Duration // due times of this window's usage streams
	settled := 0              // fresh[:settled] are older than retryLag
	out := make([]arrival, len(offs))
	for i, due := range offs {
		a := arrival{due: due, kind: kinds[i]}
		switch a.kind {
		case opStream:
			a.id = first + int64(len(fresh))
			fresh = append(fresh, due)
		case opRetry:
			for settled < len(fresh) && fresh[settled] <= due-retryLag {
				settled++
			}
			a.id = rng.Int63n(first + int64(settled))
		case opQuote:
			a.id = int64(rng.Intn(len(r.in.quotes)))
		default:
			a.id = rng.Int63()
		}
		out[i] = a
	}
	r.nextStream.Add(int64(len(fresh)))
	return out, nil
}

func (r *run) fire(a arrival) bool {
	switch a.kind {
	case opStream, opRetry:
		return r.sendStream(a.kind, a.id)
	case opQuote:
		return r.sendQuote(a.id)
	case opStatement:
		return r.readStatement(a.id)
	default:
		return r.readTenants(a.id)
	}
}

// openLoop is the harness's own pacer: every request is sent when it is
// due whether or not earlier ones have been answered, its latency runs
// from the due instant, and how late it actually left is recorded.
func (r *run) openLoop(plan []arrival) {
	t0 := time.Now()
	var wg sync.WaitGroup
	var inflight atomic.Int64
	for _, a := range plan {
		due := t0.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if inflight.Add(1) > openLoopConnsCap {
			inflight.Add(-1)
			r.tally.note("shed %s: %d requests in flight", opNames[a.kind], openLoopConnsCap)
			r.tally.observe(a.kind, due, false)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			r.tally.left(time.Since(due))
			r.tally.observe(a.kind, due, r.fire(a))
		}()
	}
	wg.Wait()
}

// window is what one measured window saw.
type window struct {
	wall, cpu         time.Duration
	records           int64 // usage records acknowledged Accepted
	attempted, within int64
	lat               [numOps][]time.Duration // sorted
	late              []time.Duration         // sorted
	// segWall is the wall time of each segment of segStreams consecutive
	// stream answers, sorted.
	segWall    []time.Duration
	mem0, mem1 runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs one window: the fixed work of seconds at the workload's
// frozen rate — sp.streams streams per second in a closed loop, sp.rate
// arrivals per second in the open loop — however long this host takes
// over it, so the ledger passes through the same states in every run.
func (r *run) measure(seconds float64) (*window, error) {
	var plan []arrival
	if r.sp.rate > 0 {
		var err error
		if plan, err = r.plan(seconds); err != nil {
			return nil, err
		}
	}
	w := &window{}
	r.tally.cut()
	a0, _ := r.tally.totals()
	runtime.ReadMemStats(&w.mem0)
	rec0, cpu0, t0 := r.accepted.Load(), cpuTime(), time.Now()
	if r.sp.rate > 0 {
		r.openLoop(plan)
	} else {
		r.closedLoop(runtime.GOMAXPROCS(0), int64(seconds*r.sp.streams))
	}
	w.wall, w.cpu, w.records = time.Since(t0), cpuTime()-cpu0, r.accepted.Load()-rec0
	runtime.ReadMemStats(&w.mem1)
	a1, _ := r.tally.totals()
	w.attempted = a1 - a0
	var marks []time.Time
	w.lat, w.late, marks, w.within = r.tally.cut()
	for i := 1; i < len(marks); i++ {
		w.segWall = append(w.segWall, marks[i].Sub(marks[i-1]))
	}
	sortDurations(w.segWall)
	if w.records == 0 || len(w.segWall) == 0 {
		return nil, fmt.Errorf("window of %.1fs of work acknowledged %d records, under one segment of %d streams", seconds, w.records, segStreams)
	}
	return w, nil
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// quantile is the exact order statistic of sorted samples, in
// milliseconds; 0 without samples.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / float64(time.Millisecond)
}
