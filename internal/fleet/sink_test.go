package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/apitest"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/workload"
)

// captureSink records what the meter forwards and can fail on demand.
type captureSink struct {
	records  []MeteredRecord
	flushed  int
	failFrom int // fail Observe from this record index on (0 = never)
	flushErr error
}

func (c *captureSink) Observe(rec MeteredRecord) error {
	c.records = append(c.records, rec)
	if c.failFrom > 0 && len(c.records) >= c.failFrom {
		return errors.New("observe boom")
	}
	return nil
}

func (c *captureSink) Flush() error {
	c.flushed++
	return c.flushErr
}

// TestMeterForwardsToSink proves every metered record reaches the sink in
// stream order, the flush runs exactly once, and sink delivery never
// perturbs the local aggregation.
func TestMeterForwardsToSink(t *testing.T) {
	pricers := testPricers(t)
	arrivals := testArrivals(t, 33, 2)
	sink := &captureSink{}
	rep, res, err := Simulate(Config{
		Machines: 2,
		Platform: testPlatform(33),
	}, arrivals, MeterConfig{Pricers: pricers, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if len(sink.records) != res.Completed {
		t.Errorf("sink saw %d records, fleet completed %d", len(sink.records), res.Completed)
	}
	if sink.flushed != 1 {
		t.Errorf("flushed %d times, want 1", sink.flushed)
	}
	if rep.SinkErrors != 0 {
		t.Errorf("sink errors = %d: %v", rep.SinkErrors, rep.Errors)
	}
}

// TestMeterCountsSinkErrors proves sink failures are counted and surfaced
// without stopping the meter.
func TestMeterCountsSinkErrors(t *testing.T) {
	pricers := testPricers(t)
	arrivals := testArrivals(t, 34, 2)
	sink := &captureSink{failFrom: 2, flushErr: errors.New("flush boom")}
	rep, res, err := Simulate(Config{
		Machines: 1,
		Platform: testPlatform(34),
	}, arrivals, MeterConfig{Pricers: pricers, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 2 {
		t.Fatalf("need ≥2 completions, got %d", res.Completed)
	}
	// Records 2..N failed Observe, plus the failed flush.
	want := res.Completed - 1 + 1
	if rep.SinkErrors != want {
		t.Errorf("sink errors = %d, want %d", rep.SinkErrors, want)
	}
	if rep.Invocations != res.Completed {
		t.Errorf("sink failures perturbed local metering: %d != %d", rep.Invocations, res.Completed)
	}
	if len(rep.Errors) == 0 {
		t.Error("no sink error messages retained")
	}
}

// TestRemoteSinkBillsLikeLocalMeter is the fleet→service loop: the same
// run is metered locally and streamed through a RemoteSink into a live
// api.Server (same calibration), and the service's statements must equal
// the local litmus bills exactly — the wire changes nothing.
func TestRemoteSinkBillsLikeLocalMeter(t *testing.T) {
	srv, err := api.New(api.Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := api.NewClient(ts.URL)
	ctx := context.Background()

	// Tiny batch size forces multiple StreamUsage calls mid-run.
	sink := NewRemoteSink(ctx, client, RemoteSinkConfig{RunID: "test-run", BatchSize: 8})
	pricers := testPricers(t)
	arrivals := testArrivals(t, 35, 2)
	rep, res, err := Simulate(Config{
		Machines: 2,
		Platform: testPlatform(35),
	}, arrivals, MeterConfig{Pricers: pricers, Sink: sink, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SinkErrors != 0 {
		t.Fatalf("sink errors: %v", rep.Errors)
	}
	st := sink.Stats()
	if st.Records != res.Completed || st.Accepted != res.Completed {
		t.Fatalf("delivery stats %+v, completed %d", st, res.Completed)
	}

	// Page the remote listing and compare every tenant against the local
	// report (the service prices with the default litmus pricer).
	var remote []api.TenantSummary
	cursor := ""
	for {
		page, err := client.Tenants(ctx, cursor, 2)
		if err != nil {
			t.Fatal(err)
		}
		remote = append(remote, page.Tenants...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(remote) != len(rep.Tenants) {
		t.Fatalf("remote has %d tenants, local %d", len(remote), len(rep.Tenants))
	}
	for i, r := range remote {
		local := rep.Tenants[i] // both sorted by name
		if r.Tenant != local.Tenant {
			t.Fatalf("tenant %d: remote %q, local %q", i, r.Tenant, local.Tenant)
		}
		if r.Invocations != int64(local.Invocations) {
			t.Errorf("%s: remote %d invocations, local %d", r.Tenant, r.Invocations, local.Invocations)
		}
		if math.Abs(r.Billed-local.Bills["litmus"]) > 1e-9*math.Max(1, local.Bills["litmus"]) {
			t.Errorf("%s: remote billed %v, local litmus %v", r.Tenant, r.Billed, local.Bills["litmus"])
		}
		if math.Abs(r.Commercial-local.Commercial) > 1e-9*math.Max(1, local.Commercial) {
			t.Errorf("%s: remote commercial %v, local %v", r.Tenant, r.Commercial, local.Commercial)
		}

		// The remote statement windows the same minutes the local meter
		// did: per-window invocation counts must line up.
		stmt, err := client.Statement(ctx, r.Tenant, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(stmt.Lines) != len(local.Windows) {
			t.Fatalf("%s: remote %d windows, local %d", r.Tenant, len(stmt.Lines), len(local.Windows))
		}
		for j, line := range stmt.Lines {
			lw := local.Windows[j]
			if line.Window != lw.Window || line.Invocations != int64(lw.Invocations) {
				t.Errorf("%s window %d: remote %+v, local %+v", r.Tenant, j, line, lw)
			}
			if math.Abs(line.Billed-lw.Bills["litmus"]) > 1e-9*math.Max(1, lw.Bills["litmus"]) {
				t.Errorf("%s window %d: remote billed %v, local %v", r.Tenant, j, line.Billed, lw.Bills["litmus"])
			}
		}
	}

	// Replaying the exact record stream under the same RunID is all
	// duplicates: nothing double-bills.
	replay := NewRemoteSink(ctx, client, RemoteSinkConfig{RunID: "test-run", BatchSize: 8})
	for _, rec := range rep.Records {
		if err := replay.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := replay.Flush(); err != nil {
		t.Fatal(err)
	}
	rst := replay.Stats()
	if rst.Duplicates != rst.Records || rst.Accepted != 0 {
		t.Fatalf("replay stats %+v, want all duplicates", rst)
	}
	after, err := client.Tenants(ctx, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Tenants) != 1 || after.Tenants[0] != remote[0] {
		t.Errorf("replay changed the ledger: %+v != %+v", after.Tenants, remote[0])
	}
}

// testRecord fabricates one billable metered record for the given tenant.
func testRecord(tenant string) MeteredRecord {
	return MeteredRecord{
		Tenant: tenant,
		Record: platform.RunRecord{
			Abbr:     "pager-py",
			Language: workload.Python,
			MemoryMB: 512,
			TPrivate: 0.08,
			TShared:  0.02,
			Probe: &engine.ProbeResult{
				TPrivateSec:     apitest.SoloTPrivate * 1.3,
				TSharedSec:      apitest.SoloTShared * 1.9,
				MachineL3Misses: 1.2e7,
			},
		},
	}
}

// TestRemoteSinkSurfacesRefusals proves a run whose records the service
// refuses ends loudly instead of silently under-billing.
func TestRemoteSinkSurfacesRefusals(t *testing.T) {
	srv, err := api.New(api.Config{Calibration: apitest.Calibration(), MaxTenants: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ctx := context.Background()
	client := api.NewClient(ts.URL)

	// Seed the single ledger slot, then stream records for other tenants:
	// every one is ledger-dropped, and Flush must say so.
	sink := NewRemoteSink(ctx, client, RemoteSinkConfig{BatchSize: 4})
	if err := sink.Observe(testRecord("occupant")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sink.Observe(testRecord(fmt.Sprintf("over-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	err = sink.Flush()
	if err == nil {
		t.Fatal("refused records did not surface")
	}
	st := sink.Stats()
	if st.Accepted != 1 || st.Dropped != 3 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want 1 accepted / 3 dropped (err: %v)", st, err)
	}
}

// flakyStreamer fails the first failures StreamUsage calls, then accepts
// everything; it records when each call arrived.
type flakyStreamer struct {
	failures int
	calls    []time.Time
}

func (f *flakyStreamer) StreamUsage(ctx context.Context, key string, records []api.UsageRecord) (api.UsageStreamResponse, error) {
	f.calls = append(f.calls, time.Now())
	if len(f.calls) <= f.failures {
		return api.UsageStreamResponse{}, errors.New("transport boom")
	}
	return api.UsageStreamResponse{Lines: len(records), UsageCounts: api.UsageCounts{Accepted: len(records)}}, nil
}

// TestRetryDelayBackoff pins the retry pause policy: exponential growth from
// the base, capped at the ceiling, jittered to half-to-full of the nominal
// value — never zero, never above nominal.
func TestRetryDelayBackoff(t *testing.T) {
	base, ceiling := 100*time.Millisecond, 800*time.Millisecond
	maxRnd := func(n int64) int64 { return n - 1 } // top of the jitter range
	minRnd := func(int64) int64 { return 0 }       // bottom
	wantNominal := []time.Duration{
		100 * time.Millisecond, // attempt 0
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		800 * time.Millisecond, // capped
		800 * time.Millisecond,
	}
	for attempt, nominal := range wantNominal {
		hi := retryDelay(attempt, base, ceiling, maxRnd)
		lo := retryDelay(attempt, base, ceiling, minRnd)
		if hi != nominal {
			t.Errorf("attempt %d: max-jitter delay = %v, want %v", attempt, hi, nominal)
		}
		if lo != nominal/2 {
			t.Errorf("attempt %d: min-jitter delay = %v, want %v", attempt, lo, nominal/2)
		}
	}
}

// TestRemoteSinkRetriesWithBackoff proves a batch that fails transiently is
// re-sent until it lands, the Retried stat counts exactly the re-sends, and
// the pauses actually separate the attempts.
func TestRemoteSinkRetriesWithBackoff(t *testing.T) {
	streamer := &flakyStreamer{failures: 3}
	sink := NewRemoteSink(context.Background(), streamer, RemoteSinkConfig{
		RunID:     "run",
		BatchSize: 1,
		Retries:   5,
		RetryWait: 10 * time.Millisecond,
	})
	if err := sink.Observe(testRecord("acme")); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	st := sink.Stats()
	if st.Retried != streamer.failures {
		t.Errorf("Retried = %d, want %d", st.Retried, streamer.failures)
	}
	if st.Accepted != 1 {
		t.Errorf("Accepted = %d, want 1", st.Accepted)
	}
	if len(streamer.calls) != streamer.failures+1 {
		t.Fatalf("%d calls, want %d", len(streamer.calls), streamer.failures+1)
	}
	// Jitter floors each pause at nominal/2, so attempt 2 (after two pauses
	// of >= 5ms and >= 10ms) cannot arrive sooner than 15ms after attempt 0.
	if gap := streamer.calls[3].Sub(streamer.calls[0]); gap < 15*time.Millisecond {
		t.Errorf("three backoff pauses took %v, want >= 15ms", gap)
	}
}

// failingStreamer always fails, so the sink sits in its backoff pauses.
type failingStreamer struct{ calls int }

func (f *failingStreamer) StreamUsage(context.Context, string, []api.UsageRecord) (api.UsageStreamResponse, error) {
	f.calls++
	return api.UsageStreamResponse{}, errors.New("transport boom")
}

// TestRemoteSinkBackoffRespectsCancellation proves a context cancelled
// mid-pause aborts the retry loop promptly and the surfaced error is the
// transport failure, not the cancellation that merely cut the wait short.
func TestRemoteSinkBackoffRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	streamer := &failingStreamer{}
	sink := NewRemoteSink(ctx, streamer, RemoteSinkConfig{
		// BatchSize > 1 keeps the record buffered so the send happens in
		// Flush below, concurrent with the cancel timer — a batch-filling
		// Observe would enter the hour-long pause before cancel is armed.
		BatchSize: 8,
		Retries:   1000,
		RetryWait: time.Hour, // without cancellation this test would hang
	})
	if err := sink.Observe(testRecord("acme")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sink.Flush() }()
	time.AfterFunc(20*time.Millisecond, cancel)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled retry loop reported success")
		}
		if !strings.Contains(err.Error(), "transport boom") {
			t.Errorf("err = %v, want the transport failure preserved", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retry loop ignored cancellation")
	}
	if streamer.calls > 2 {
		t.Errorf("%d attempts after cancellation, want at most 2", streamer.calls)
	}
}
