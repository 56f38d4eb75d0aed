package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/api/apitest"
	"repro/internal/cluster"
	"repro/internal/ledger"
)

// TestCheckFlags: a flag the selected mode would drop is refused by name,
// with the flag that selects the mode, instead of being ignored; and no
// prober starts on settings it cannot run with.
func TestCheckFlags(t *testing.T) {
	const every, fails = 2 * time.Second, 5 // the flag defaults
	check := func(t *testing.T, err error, want []string) {
		t.Helper()
		if want == nil {
			if err != nil {
				t.Fatalf("refused: %v", err)
			}
			return
		}
		if err == nil {
			t.Fatalf("accepted; want a refusal naming %v", want)
		}
		for _, part := range want {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("refusal %q does not name %s", err, part)
			}
		}
	}

	const on = 100 // a positive -admission-rate
	for _, c := range []struct {
		name        string
		set         []string
		autoPromote bool
		adm         api.Config // the admission flags' values
		want        []string   // substrings of the refusal; nil = accepted
	}{
		{name: "node defaults"},
		{name: "durable node with admission", set: []string{"addr", "tables", "data-dir", "fsync", "snapshot-every", "admission-rate", "shards"}},
		{name: "router", set: []string{"cluster", "addr", "max-body"}},
		{name: "standby", set: []string{"follow", "addr", "tables", "max-tenants", "admission-rate"}},
		{name: "auto-promoting standby", set: []string{"follow", "auto-promote", "probe-interval", "probe-failures"}, autoPromote: true},
		{name: "-pprof on a durable node", set: []string{"pprof", "data-dir"}},
		{name: "-pprof on a router", set: []string{"cluster", "pprof"}},
		{name: "-pprof on a standby", set: []string{"follow", "pprof", "auto-promote"}, autoPromote: true},

		{name: "router ignores -follow", set: []string{"cluster", "follow"}, want: []string{"-follow", "-cluster"}},
		{name: "router ignores -tables", set: []string{"cluster", "tables"}, want: []string{"-tables", "-cluster"}},
		{name: "router ignores -data-dir", set: []string{"cluster", "addr", "data-dir"}, want: []string{"-data-dir", "-cluster"}},
		{name: "router ignores -admission-rate", set: []string{"cluster", "admission-rate"}, want: []string{"-admission-rate", "-cluster"}},
		{name: "router ignores -admission-burst", set: []string{"cluster", "max-body", "admission-burst"}, want: []string{"-admission-burst", "-cluster"}},
		{name: "standby is volatile", set: []string{"follow", "data-dir"}, want: []string{"-data-dir", "-follow"}},
		{name: "standby has no WAL to sync", set: []string{"follow", "fsync"}, want: []string{"-fsync", "-follow"}},
		{name: "standby takes the primary's shards", set: []string{"follow", "shards"}, want: []string{"-shards", "-follow"}},
		{name: "-auto-promote without -follow", set: []string{"auto-promote"}, autoPromote: true, want: []string{"-auto-promote", "-follow"}},
		{name: "-probe-interval without -follow", set: []string{"probe-interval"}, want: []string{"-probe-interval", "-follow"}},
		{name: "-probe-failures without -follow", set: []string{"data-dir", "probe-failures"}, want: []string{"-probe-failures", "-follow"}},
		{name: "-probe-interval without -auto-promote", set: []string{"follow", "probe-interval"}, want: []string{"-probe-interval", "-auto-promote"}},
		{name: "-probe-failures with -auto-promote=false", set: []string{"follow", "auto-promote", "probe-failures"}, want: []string{"-probe-failures", "-auto-promote"}},

		{name: "every admission flag", set: []string{"admission-rate", "admission-burst", "admission-budget", "forecast-window"},
			adm: api.Config{AdmissionRate: on, AdmissionBurst: 1000, AdmissionBudget: 5, AdmissionWindow: time.Second}},
		{name: "admission flags on a standby", set: []string{"follow", "admission-rate", "admission-burst"}, adm: api.Config{AdmissionRate: on}},
		{name: "-admission-rate 0 says off", set: []string{"admission-rate"}},
		{name: "-admission-burst without -admission-rate", set: []string{"admission-burst"}, adm: api.Config{AdmissionBurst: 1000},
			want: []string{"-admission-burst", "-admission-rate", "positive"}},
		{name: "-admission-budget without -admission-rate", set: []string{"admission-budget"}, adm: api.Config{AdmissionBudget: 5},
			want: []string{"-admission-budget", "-admission-rate", "positive"}},
		{name: "-forecast-window without -admission-rate", set: []string{"data-dir", "forecast-window"}, adm: api.Config{AdmissionWindow: time.Second},
			want: []string{"-forecast-window", "-admission-rate", "positive"}},
		{name: "-admission-burst with -admission-rate 0", set: []string{"admission-rate", "admission-burst"}, adm: api.Config{AdmissionBurst: 1000},
			want: []string{"-admission-burst", "-admission-rate"}},
		{name: "negative -admission-rate", set: []string{"admission-rate"}, adm: api.Config{AdmissionRate: -1},
			want: []string{"-admission-rate -1", "negative"}},
		{name: "negative -admission-burst", set: []string{"admission-rate", "admission-burst"}, adm: api.Config{AdmissionRate: on, AdmissionBurst: -2},
			want: []string{"-admission-burst -2", "negative"}},
		{name: "negative -admission-budget", set: []string{"admission-rate", "admission-budget"}, adm: api.Config{AdmissionRate: on, AdmissionBudget: -0.5},
			want: []string{"-admission-budget -0.5", "negative"}},
		{name: "negative -forecast-window", set: []string{"admission-rate", "forecast-window"}, adm: api.Config{AdmissionRate: on, AdmissionWindow: -time.Second},
			want: []string{"-forecast-window -1s", "negative"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			check(t, checkFlags(c.set, c.autoPromote, every, fails, c.adm), c.want)
		})
	}

	// -probe-failures 0 used to become 5 behind the operator's back.
	prober := []string{"auto-promote", "follow", "probe-failures", "probe-interval"}
	for _, c := range []struct {
		name  string
		every time.Duration
		fails int
		want  []string
	}{
		{"one probe a millisecond, one failure", time.Millisecond, 1, nil},
		{"zero failures", every, 0, []string{"-probe-failures", "positive"}},
		{"negative failures", every, -2, []string{"-probe-failures", "positive"}},
		{"zero interval", 0, fails, []string{"-probe-interval", "positive"}},
		{"negative interval", -time.Second, fails, []string{"-probe-interval", "positive"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			check(t, checkFlags(prober, true, c.every, c.fails, api.Config{}), c.want)
		})
	}
}

// TestServeDrainsOnShutdown cancels serve's context — what SIGTERM does to
// main's — while a slow /v3/usage stream is half sent: the listener closes
// at once, the stream is read to its end, billed and answered in full, and
// only then is the ledger flushed and closed.
func TestServeDrainsOnShutdown(t *testing.T) {
	ledCfg := ledger.Config{Dir: t.TempDir(), Shards: 2, Fsync: ledger.FsyncNever, SnapshotEvery: -1}
	led, err := ledger.New(ledCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := api.New(api.Config{Calibration: apitest.Calibration(), Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- serve(ctx, ln, cluster.PrimaryHandler(srv, cluster.SourceConfig{}), srv.Close)
	}()

	const line = `{"tenant":"acme","language":"py","memoryMB":512,"tPrivate":0.08,"tShared":0.02,` +
		`"probe":{"tPrivate":0.0195,"tShared":0.0076,"machineL3Misses":1.2e7}}` + "\n"
	body, slowClient := io.Pipe()
	type answer struct {
		resp api.UsageStreamResponse
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		var a answer
		resp, err := http.Post(base+"/v3/usage", "application/x-ndjson", body)
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		a.err = json.NewDecoder(resp.Body).Decode(&a.resp)
		answered <- a
	}()
	if _, err := io.WriteString(slowClient, line); err != nil {
		t.Fatal(err)
	}
	// The stream is in flight once the server counts it on its route.
	waitUntil(t, "the stream to reach its handler", func() bool {
		var h api.HealthResponse
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Requests.Endpoints["/v3/usage"].Requests == 1
	})

	cancel()
	waitUntil(t, "the listener to close", func() bool {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err == nil {
			conn.Close()
		}
		return err != nil
	})
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) with a stream still in flight", err)
	case a := <-answered:
		t.Fatalf("stream answered before its body ended: %+v", a)
	default:
	}

	// The client finishes at its own pace; the drain waits for it, and the
	// ledger stays open under it: a closed one would refuse the two lines.
	for i := 0; i < 2; i++ {
		if _, err := io.WriteString(slowClient, line); err != nil {
			t.Fatal(err)
		}
	}
	slowClient.Close()
	select {
	case a := <-answered:
		if a.err != nil || a.resp.Lines != 3 || a.resp.Accepted != 3 {
			t.Fatalf("drained stream = %+v, %v; want 3 lines accepted", a.resp, a.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight stream never answered")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve never returned after the drain")
	}

	// Closed behind the drain, with everything the stream billed on disk.
	if _, err := led.Accrue(ledger.Entry{Tenant: "late", Price: 1}); !errors.Is(err, ledger.ErrDurability) {
		t.Errorf("accrual after shutdown: err = %v, want the closed ledger's ErrDurability", err)
	}
	reopened, err := ledger.New(ledCfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum, ok := reopened.Summary("acme"); !ok || sum.Invocations != 3 {
		t.Errorf("recovered summary = %+v, %v; want the 3 drained records", sum, ok)
	}
	if err := reopened.Close(); err != nil {
		t.Error(err)
	}
}

// TestPprofListener: -pprof's listener answers /debug/pprof/, and the API's
// handler — a node's, as serve mounts it — does not.
func TestPprofListener(t *testing.T) {
	pln, err := servePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pln.Close() })
	srv, err := api.New(api.Config{Calibration: apitest.Calibration()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	apiSrv := httptest.NewServer(cluster.PrimaryHandler(srv, cluster.SourceConfig{}))
	t.Cleanup(apiSrv.Close)

	for _, c := range []struct {
		base string
		want int
	}{
		{"http://" + pln.Addr().String(), http.StatusOK},
		{apiSrv.URL, http.StatusNotFound},
	} {
		resp, err := http.Get(c.base + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s/debug/pprof/cmdline: status %d, want %d", c.base, resp.StatusCode, c.want)
		}
		if c.want == http.StatusOK && !strings.Contains(string(body), os.Args[0]) {
			t.Errorf("pprof cmdline %q does not name the process %q", body, os.Args[0])
		}
	}
}

// TestServeReturnsListenerFailure: a listener that dies under serve ends it
// with the error, without running the shutdown path.
func TestServeReturnsListenerFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	cleaned := false
	err = serve(context.Background(), ln, http.NotFoundHandler(), func() error { cleaned = true; return nil })
	if err == nil || errors.Is(err, http.ErrServerClosed) || cleaned {
		t.Errorf("serve on a dead listener = %v (cleanup ran: %v)", err, cleaned)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
