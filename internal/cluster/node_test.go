package cluster_test

// The failover surface a pricingd node mounts: the standby's control routes
// (byte-exact bodies, before and after promotion) and the auto-promote
// prober against a primary whose /healthz the follower sees fail on a script.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ledger"
)

// scriptedProbes is the follower-side transport of the prober tests: it
// answers the n-th /healthz probe (1-based) itself — 503 when down(n) says so,
// 200 otherwise — counts them, and passes everything else on to the primary.
// The verdict is scripted and counted where AutoPromote takes it. A script
// kept in the primary's handler is not that: the probe's deadline (= the
// probe interval) beats the handler under load, and the probe then fails
// unscripted and is counted late or never.
type scriptedProbes struct {
	down   func(n int64) bool
	probes atomic.Int64
}

func (s *scriptedProbes) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/healthz" {
		return http.DefaultTransport.RoundTrip(r)
	}
	rec := httptest.NewRecorder()
	if s.down(s.probes.Add(1)) {
		http.Error(rec, "down", http.StatusServiceUnavailable)
	} else {
		rec.WriteString("{}")
	}
	resp := rec.Result()
	resp.Request = r
	return resp, nil
}

// newProbedFollower is newFollower against a fresh primary whose /healthz
// the follower sees fail on a script; probes counts the probes it made.
func newProbedFollower(t *testing.T, down func(n int64) bool) (f *cluster.Follower, probes *atomic.Int64) {
	t.Helper()
	_, primary := newPrimary(t, primaryCfg(t.TempDir()))
	rt := &scriptedProbes{down: down}
	f, _ = newFollowerVia(t, primary.URL, rt)
	return f, &rt.probes
}

// startProber runs AutoPromote in the background; stopped closes when it
// returns.
func startProber(t *testing.T, f *cluster.Follower, failures int) (cancel context.CancelFunc, stopped chan struct{}) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stopped = make(chan struct{})
	go func() {
		defer close(stopped)
		f.AutoPromote(ctx, 5*time.Millisecond, failures)
	}()
	t.Cleanup(func() { cancel(); <-stopped })
	return cancel, stopped
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAutoPromoteNeedsConsecutiveFailures(t *testing.T) {
	const failures = 3
	// Two failures, then a healthy probe, for ever: never three in a row.
	f, probes := newProbedFollower(t, func(n int64) bool { return n%failures != 0 })
	cancel, stopped := startProber(t, f, failures)

	waitFor(t, "four rounds of probes", func() bool { return probes.Load() >= 4*failures })
	if !f.Ledger().Replica() || f.Status().Promoted {
		t.Fatalf("promoted after runs of %d failed probes, each ended by a healthy one", failures-1)
	}
	select {
	case <-stopped:
		t.Fatal("prober gave up while the primary kept recovering")
	default:
	}

	// Cancelling the context stops the prober, and stops it probing.
	cancel()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("prober still running after its context was cancelled")
	}
	seen := probes.Load()
	time.Sleep(30 * time.Millisecond)
	if got := probes.Load(); got != seen {
		t.Errorf("%d probes after the prober stopped", got-seen)
	}
	if !f.Ledger().Replica() {
		t.Error("stopping the prober promoted the standby")
	}
}

func TestAutoPromoteTakesOverOnce(t *testing.T) {
	const failures = 3
	f, probes := newProbedFollower(t, func(int64) bool { return true })
	_, stopped := startProber(t, f, failures)

	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("prober never took over from a dead primary")
	}
	if got := probes.Load(); got != failures {
		t.Errorf("took over after %d failed probes, want exactly %d", got, failures)
	}
	if f.Ledger().Replica() || !f.Status().Promoted {
		t.Fatal("prober returned without promoting")
	}
	if f.Promote() {
		t.Error("a promote after the prober's take-over claimed the transition again")
	}
	time.Sleep(30 * time.Millisecond)
	if got := probes.Load(); got != failures {
		t.Errorf("prober kept probing after take-over: %d probes", got)
	}
	if out, err := f.Ledger().Accrue(ledger.Entry{Tenant: "acme", Price: 1}); err != nil || out != ledger.Accrued {
		t.Errorf("promoted ledger refused an accrual: %v, %v", out, err)
	}
}

// TestStandbyControlRoutes pins the standby's wire: the write refusal, the
// /healthz standby bit and both control bodies, before promotion, after it,
// and after a second promote.
func TestStandbyControlRoutes(t *testing.T) {
	_, primary := newPrimary(t, primaryCfg(t.TempDir()))
	f, _ := newFollower(t, primary.URL)
	srv, _ := newNode(t, f.Ledger())
	standby := httptest.NewServer(f.Handler(srv))
	t.Cleanup(standby.Close)

	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, standby.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	expect := func(method, path string, wantStatus int, wantBody string) {
		t.Helper()
		if status, body := do(method, path, ""); status != wantStatus || body != wantBody {
			t.Errorf("%s %s = %d %q, want %d %q", method, path, status, body, wantStatus, wantBody)
		}
	}
	follower := func(promoted string) string {
		return `{"primary":"` + primary.URL + `","promoted":` + promoted +
			`,"shards":[{"shard":0,"seq":0,"off":0},{"shard":1,"seq":0,"off":0},{"shard":2,"seq":0,"off":0}]}` + "\n"
	}
	lines := usageLine("acme", 512, 0, "k1") + "\n" + usageLine("zeta", 256, 3, "k2") + "\n"
	const refusal = `{"status":503,"message":"standby: writes go to the primary"}`

	expect(http.MethodGet, "/cluster/promote", http.StatusMethodNotAllowed, "POST only\n")
	expect(http.MethodGet, "/cluster/follower", http.StatusOK, follower("false"))
	if _, body := do(http.MethodGet, "/healthz", ""); !strings.Contains(body, `"ok":true,"standby":true,`) {
		t.Errorf("standby /healthz = %s", body)
	}
	status, body := do(http.MethodPost, "/v3/usage", lines)
	if status != http.StatusOK || !strings.Contains(body, `"accepted":0`) || !strings.Contains(body, `"dropped":2`) ||
		strings.Count(body, refusal) != 2 {
		t.Errorf("standby ingest = %d %s", status, body)
	}
	if st := f.Ledger().Stats(); st.Accrued+st.Duplicates+st.Dropped != 0 {
		t.Errorf("refused writes moved the standby's counters: %+v", st)
	}

	expect(http.MethodPost, "/cluster/promote", http.StatusOK, `{"promoted":true}`+"\n")
	expect(http.MethodGet, "/cluster/follower", http.StatusOK, follower("true"))
	if _, body := do(http.MethodGet, "/healthz", ""); strings.Contains(body, "standby") {
		t.Errorf("promoted /healthz still mentions standby: %s", body)
	}
	expect(http.MethodPost, "/cluster/promote", http.StatusOK, `{"promoted":false}`+"\n")
	expect(http.MethodGet, "/cluster/follower", http.StatusOK, follower("true"))

	status, body = do(http.MethodPost, "/v3/usage", lines)
	if status != http.StatusOK || !strings.Contains(body, `"accepted":2`) || strings.Contains(body, "standby") {
		t.Errorf("promoted ingest = %d %s", status, body)
	}
}
