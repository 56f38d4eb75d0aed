package fleet

// Regression tests for the sink's backpressure contract: permanent client
// errors fail fast, throttled deliveries re-send the batch after the server's own
// Retry-After hint, and a throttle that outlives the retry budget surfaces
// at Flush instead of vanishing.

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// badRequestStreamer always answers a permanent 400.
type badRequestStreamer struct{ calls int }

func (f *badRequestStreamer) StreamUsage(context.Context, string, []api.UsageRecord) (api.UsageStreamResponse, error) {
	f.calls++
	return api.UsageStreamResponse{}, &api.Error{Status: http.StatusBadRequest, Message: "malformed record"}
}

// TestRemoteSinkPermanentErrorFailsFast proves a non-429 4xx is never
// retried: re-sending a request the server has already called malformed
// cannot succeed, so the sink must spend exactly one attempt on it however
// large its retry budget is.
func TestRemoteSinkPermanentErrorFailsFast(t *testing.T) {
	streamer := &badRequestStreamer{}
	sink := NewRemoteSink(context.Background(), streamer, RemoteSinkConfig{
		BatchSize: 1,
		Retries:   100,
		RetryWait: time.Hour, // a single retry pause would hang the test
	})
	err := sink.Observe(testRecord("acme"))
	if err == nil {
		t.Fatal("permanent 400 did not surface")
	}
	if !strings.Contains(err.Error(), "permanent client error") {
		t.Errorf("err = %v, want the permanent-client-error classification", err)
	}
	if streamer.calls != 1 {
		t.Fatalf("%d attempts against a permanent 400, want exactly 1", streamer.calls)
	}
}

// throttlingStreamer throttles its first throttles calls (whole batch, with
// a Retry-After hint) and accepts everything afterwards. Like the real
// clients it reports the throttle as a delivery: accounting, nil error.
type throttlingStreamer struct {
	throttles  int
	retryAfter float64 // seconds
	calls      []time.Time
}

func (f *throttlingStreamer) StreamUsage(_ context.Context, _ string, records []api.UsageRecord) (api.UsageStreamResponse, error) {
	f.calls = append(f.calls, time.Now())
	if len(f.calls) <= f.throttles {
		return api.UsageStreamResponse{
			Lines:         len(records),
			UsageCounts:   api.UsageCounts{Throttled: len(records)},
			RetryAfterSec: f.retryAfter,
		}, nil
	}
	return api.UsageStreamResponse{Lines: len(records), UsageCounts: api.UsageCounts{Accepted: len(records)}}, nil
}

// TestRemoteSinkHonorsRetryAfter proves a throttled batch is re-sent as a
// whole after the server's Retry-After hint — not dropped, not folded twice:
// only the final attempt's accounting lands in the stats.
func TestRemoteSinkHonorsRetryAfter(t *testing.T) {
	streamer := &throttlingStreamer{throttles: 1, retryAfter: 0.03}
	sink := NewRemoteSink(context.Background(), streamer, RemoteSinkConfig{
		RunID:     "run",
		BatchSize: 2,
		Retries:   3,
		RetryWait: time.Hour, // the server hint, not the default pause, must drive the wait
	})
	for _, tn := range []string{"acme", "bream"} {
		if err := sink.Observe(testRecord(tn)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("throttle that resolved within budget surfaced: %v", err)
	}
	st := sink.Stats()
	if st.Accepted != 2 || st.Throttled != 0 || st.Retried != 1 {
		t.Errorf("stats = %+v, want 2 accepted / 0 throttled / 1 retried", st)
	}
	if len(streamer.calls) != 2 {
		t.Fatalf("%d attempts, want 2", len(streamer.calls))
	}
	if gap := streamer.calls[1].Sub(streamer.calls[0]); gap < 30*time.Millisecond {
		t.Errorf("retry arrived %v after the throttle, want >= the 30ms Retry-After hint", gap)
	}
}

// TestRemoteSinkThrottleBudgetExhausted proves a throttle that never clears
// within the retry budget is not silent: the final attempt's Throttled count
// stays in the stats and Flush reports the loss.
func TestRemoteSinkThrottleBudgetExhausted(t *testing.T) {
	streamer := &throttlingStreamer{throttles: 1000, retryAfter: 0.001}
	sink := NewRemoteSink(context.Background(), streamer, RemoteSinkConfig{
		BatchSize: 4,
		Retries:   2,
		RetryWait: time.Millisecond,
	})
	if err := sink.Observe(testRecord("acme")); err != nil {
		t.Fatal(err)
	}
	err := sink.Flush()
	if err == nil {
		t.Fatal("exhausted throttle budget did not surface at Flush")
	}
	if !strings.Contains(err.Error(), "throttled") {
		t.Errorf("err = %v, want the throttle named", err)
	}
	if st := sink.Stats(); st.Throttled != 1 || st.Accepted != 0 {
		t.Errorf("stats = %+v, want 1 throttled / 0 accepted", st)
	}
	if want := 3; len(streamer.calls) != want { // initial attempt + 2 retries
		t.Fatalf("%d attempts, want %d", len(streamer.calls), want)
	}
}
