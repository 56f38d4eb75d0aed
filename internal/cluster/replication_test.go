package cluster_test

// Replication and failover over real HTTP: a durable primary serves its WAL
// through cluster.Source, a Follower tails it into a volatile standby, and
// the standby is proven byte-identical (ledgertest.Diff) — including after
// compaction forces a snapshot re-bootstrap, and after a promotion closes
// the unreplicated tail via idempotent client replay (ledgertest.DiffBills
// against a single-ledger oracle).

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/frame"
	"repro/internal/ledger"
	"repro/internal/ledger/ledgertest"
)

// primaryCfg is the durable primary shape every replication test uses.
func primaryCfg(dir string) ledger.Config {
	return ledger.Config{
		MaxTenants:    64,
		WindowMinutes: 2,
		MaxKeys:       1 << 12,
		Shards:        3,
		Dir:           dir,
		Fsync:         ledger.FsyncNever,
		SnapshotEvery: -1,
	}
}

// newPrimary builds a durable-ledger pricing node with its replication
// source mounted under /cluster/.
func newPrimary(t *testing.T, cfg ledger.Config) (*ledger.Ledger, *httptest.Server) {
	t.Helper()
	led, err := ledger.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = led.Close() })
	srv, _ := newNode(t, led)
	ts := httptest.NewServer(cluster.PrimaryHandler(srv,
		cluster.SourceConfig{MaxWait: 200 * time.Millisecond, Poll: 2 * time.Millisecond}))
	t.Cleanup(ts.Close)
	return led, ts
}

// newFollower bootstraps a follower against primary and starts it tailing.
// The returned cancel pauses replication (and is safe to call twice).
func newFollower(t *testing.T, primaryURL string) (*cluster.Follower, context.CancelFunc) {
	t.Helper()
	return newFollowerVia(t, primaryURL, nil)
}

// newFollowerVia is newFollower speaking to the primary through rt (nil
// keeps the client NewFollower built).
func newFollowerVia(t *testing.T, primaryURL string, rt http.RoundTripper) (*cluster.Follower, context.CancelFunc) {
	t.Helper()
	f := bootstrapFollower(t, primaryURL, rt)
	return f, runFollower(t, f)
}

// bootstrapFollower builds a follower of primaryURL speaking through rt (nil
// keeps the client NewFollower built) and bootstraps it, without starting
// it: what the primary does next is what the follower will tail.
func bootstrapFollower(t *testing.T, primaryURL string, rt http.RoundTripper) *cluster.Follower {
	t.Helper()
	f := cluster.NewFollower(primaryURL, cluster.FollowerConfig{MaxTenants: 64, Poll: 2 * time.Millisecond})
	if rt != nil {
		f.SetTransport(rt)
	}
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	return f
}

// runFollower starts f tailing. The returned cancel pauses replication (and
// is safe to call twice).
func runFollower(t *testing.T, f *cluster.Follower) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return func() { cancel(); <-done }
}

// waitCaughtUp polls until the follower's applied positions reach the end
// of every live WAL segment in the primary's data directory (the primary
// must be quiescent).
func waitCaughtUp(t *testing.T, f *cluster.Follower, primary *ledger.Ledger) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		list, err := ledger.ReadSizedListing(primary.Durability().Dir)
		if err != nil {
			t.Fatal(err)
		}
		// The head position per shard: the newest segment and its size.
		head := map[int]ledger.SegmentInfo{}
		for _, seg := range list.Segments {
			if cur, ok := head[seg.Shard]; !ok || seg.Seq > cur.Seq {
				head[seg.Shard] = seg
			}
		}
		st := f.Status()
		caught := len(st.Shards) > 0
		for _, sh := range st.Shards {
			want, ok := head[sh.Shard]
			if !ok {
				continue // shard never written: nothing to catch up on
			}
			if sh.Seq != want.Seq || sh.Off != want.Size {
				caught = false
				break
			}
		}
		if caught {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: status %+v, segments %+v", st, list)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func streamRecords(t *testing.T, base, key string, records []api.UsageRecord) api.UsageStreamResponse {
	t.Helper()
	resp, err := api.NewClient(base).StreamUsage(context.Background(), key, records)
	if err != nil {
		t.Fatalf("StreamUsage(%s): %v", key, err)
	}
	return resp
}

func TestFollowerMirrorsPrimary(t *testing.T) {
	led, ts := newPrimary(t, primaryCfg(t.TempDir()))
	f, _ := newFollower(t, ts.URL)

	streamRecords(t, ts.URL, "run-A", testRecords(t, 16, 240))
	waitCaughtUp(t, f, led)

	// The standby is observably identical — counters included.
	if err := ledgertest.Diff(led, f.Ledger()); err != nil {
		t.Fatalf("standby diverged from primary: %v", err)
	}

	// The primary-side lag gauge drains to zero once the tailers have
	// pulled everything.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st cluster.SourceStatus
		resp, err := http.Get(ts.URL + "/cluster/status")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.TotalLagBytes == 0 && len(st.Shards) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication lag never drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// More traffic while the follower keeps tailing: still identical.
	streamRecords(t, ts.URL, "run-B", testRecords(t, 16, 120))
	waitCaughtUp(t, f, led)
	if err := ledgertest.Diff(led, f.Ledger()); err != nil {
		t.Fatalf("standby diverged after second stream: %v", err)
	}
}

func TestFollowerResyncAfterCompaction(t *testing.T) {
	led, ts := newPrimary(t, primaryCfg(t.TempDir()))
	f, pause := newFollower(t, ts.URL)

	streamRecords(t, ts.URL, "run-A", testRecords(t, 12, 150))
	waitCaughtUp(t, f, led)

	// Pause replication, then move the primary past the follower's horizon:
	// new traffic plus a snapshot that compacts the segments the follower
	// was tailing.
	pause()
	streamRecords(t, ts.URL, "run-B", testRecords(t, 12, 150))
	if err := led.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Resume: the stale positions come back 410 Gone, the follower
	// re-bootstraps from the snapshot and catches up.
	runFollower(t, f)

	streamRecords(t, ts.URL, "run-C", testRecords(t, 12, 60))
	waitCaughtUp(t, f, led)
	if err := ledgertest.Diff(led, f.Ledger()); err != nil {
		t.Fatalf("standby diverged after resync: %v", err)
	}
	st := f.Status()
	for _, sh := range st.Shards {
		if sh.Seq == 0 {
			t.Fatalf("shard %d still at seq 0 after compaction resync: %+v", sh.Shard, st)
		}
	}
}

// TestRefusedPullLeavesStatusUnchanged: /cluster/status reports what a
// follower pulled, so a pull the primary refused — a segment never written
// (404), one compacted away (410), a shard the ledger does not have (404) —
// must not move it. Were it noted, a lagging standby would read as caught
// up, and every shard number asked about would stay in the acked map.
func TestRefusedPullLeavesStatusUnchanged(t *testing.T) {
	dir := t.TempDir()
	led, primary := newPrimary(t, primaryCfg(dir))
	src := cluster.NewSource(dir, cluster.SourceConfig{MaxWait: 50 * time.Millisecond, Poll: 2 * time.Millisecond})
	ts := httptest.NewServer(src)
	t.Cleanup(ts.Close)
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	firstSegment := func() ledger.SegmentInfo {
		t.Helper()
		list, err := ledger.ReadSizedListing(dir)
		if err != nil || len(list.Segments) == 0 {
			t.Fatalf("segments: %+v, %v", list, err)
		}
		return list.Segments[0]
	}

	streamRecords(t, primary.URL, "run-A", testRecords(t, 12, 150))
	compacted := firstSegment()
	if err := led.Snapshot(); err != nil {
		t.Fatal(err)
	}
	streamRecords(t, primary.URL, "run-B", testRecords(t, 12, 60))
	live := firstSegment()

	for _, pull := range []struct {
		name   string
		shard  int
		seq    uint64
		status int
	}{
		{"never written", live.Shard, live.Seq + 1000, http.StatusNotFound},
		{"compacted", compacted.Shard, compacted.Seq, http.StatusGone},
		{"no such shard", 999, live.Seq, http.StatusNotFound},
	} {
		_, before := get("/cluster/status")
		code, body := get(fmt.Sprintf("/cluster/wal?shard=%d&seq=%d&off=5", pull.shard, pull.seq))
		if code != pull.status {
			t.Fatalf("%s: pull answered %d (%s), want %d", pull.name, code, body, pull.status)
		}
		if _, after := get("/cluster/status"); after != before {
			t.Errorf("%s: a refused pull moved /cluster/status\n before %s\n after  %s", pull.name, before, after)
		}
		if n := src.AckedShards(); n != 0 {
			t.Errorf("%s: a refused pull left %d acked shards", pull.name, n)
		}
	}

	// A pull of a live segment is noted, and the checks above would see it.
	_, before := get("/cluster/status")
	if code, _ := get(fmt.Sprintf("/cluster/wal?shard=%d&seq=%d&off=%d", live.Shard, live.Seq, live.Size)); code != http.StatusOK {
		t.Fatalf("live pull answered %d", code)
	}
	if _, after := get("/cluster/status"); after == before || src.AckedShards() != 1 {
		t.Errorf("a live pull went unnoted: %s, %d acked shards", after, src.AckedShards())
	}
}

// forward relays r to the primary at base, trailers included.
func forward(w http.ResponseWriter, r *http.Request, base string) {
	resp, err := http.Get(base + r.URL.RequestURI())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vv := range resp.Header {
		w.Header()[k] = vv
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	for k, vv := range resp.Trailer {
		w.Header()[http.TrailerPrefix+k] = vv
	}
}

// TestFollowerNoHopOnUndrainedSeal pins the segment-hop rule: a follower
// moves to a shard's next segment only on the X-Wal-Next trailer, which the
// source sends after reading a sealed segment to its end. The primary has
// real next segments (Archive, and a snapshot taken after the follower
// bootstrapped at seq 0), and the proxy degrades each shard's first three
// pulls of its sealed segment: a clean, empty 200 with no trailer, a 503,
// and the real stream cut short so its trailer never arrives. Each reads
// like "sealed, nothing left" to a follower that guesses; every one must
// leave it on seq 0, and once the pulls pass the standby must equal the
// primary.
func TestFollowerNoHopOnUndrainedSeal(t *testing.T) {
	cfg := primaryCfg(t.TempDir())
	cfg.Archive = true
	led, ts := newPrimary(t, cfg)

	var mu sync.Mutex
	pulls := map[string][]string{} // per shard, the seq of every WAL pull
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/wal" {
			forward(w, r, ts.URL)
			return
		}
		shard, seq := r.URL.Query().Get("shard"), r.URL.Query().Get("seq")
		mu.Lock()
		sealedPulls := 0
		for _, s := range pulls[shard] {
			if s == "0" {
				sealedPulls++
			}
		}
		pulls[shard] = append(pulls[shard], seq)
		mu.Unlock()
		if seq != "0" {
			forward(w, r, ts.URL)
			return
		}
		switch sealedPulls {
		case 0:
			// A clean, empty 200: what a quiet-timeout pull looks like.
			w.WriteHeader(http.StatusOK)
		case 1:
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
		case 2:
			// The sealed segment's real stream, cut at half its bytes
			// (mid-frame, as likely as not): a clean end, no trailer.
			resp, err := http.Get(ts.URL + r.URL.RequestURI())
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			w.WriteHeader(resp.StatusCode)
			_, _ = w.Write(body[:len(body)/2])
		default:
			forward(w, r, ts.URL)
		}
	}))
	t.Cleanup(proxy.Close)

	streamRecords(t, ts.URL, "run-A", testRecords(t, 16, 240))
	f := bootstrapFollower(t, proxy.URL, nil) // no snapshot yet: every shard at seq 0
	if err := led.Snapshot(); err != nil {
		t.Fatal(err)
	}
	streamRecords(t, ts.URL, "run-B", testRecords(t, 16, 120))
	runFollower(t, f)

	// Caught up means every shard moved onto seq 1 and applied it.
	waitCaughtUp(t, f, led)
	if err := ledgertest.Diff(led, f.Ledger()); err != nil {
		t.Fatalf("standby diverged — a degraded pull hopped past unapplied WAL bytes: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(pulls) != cfg.Shards {
		t.Fatalf("WAL pulls reached %d shards, want %d: %v", len(pulls), cfg.Shards, pulls)
	}
	for shard, seqs := range pulls {
		// Three degraded pulls and at least one that passed, all of seq 0,
		// before the first pull of anything else.
		first := slices.IndexFunc(seqs, func(s string) bool { return s != "0" })
		if first < 4 {
			t.Errorf("shard %s left seq 0 after %d pulls, 3 of them degraded: %v", shard, first, seqs)
		}
	}
}

// TestFollowerHopsSealedSegments: a follower tailing a primary that
// snapshots moves from each sealed segment to the next on the source's
// X-Wal-Next trailer, live, with no re-bootstrap. Archive keeps every
// segment, so none the follower still has to read is compacted away; each
// snapshot seals segments the follower is long-polling at their end.
func TestFollowerHopsSealedSegments(t *testing.T) {
	cfg := primaryCfg(t.TempDir())
	cfg.Archive = true
	led, ts := newPrimary(t, cfg)
	var mu sync.Mutex
	requests := map[string]int{}
	f, _ := newFollowerVia(t, ts.URL, roundTripFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		requests[r.URL.Path]++
		mu.Unlock()
		return api.DefaultTransport().RoundTrip(r)
	}))

	for i, key := range []string{"run-A", "run-B", "run-C"} {
		if i > 0 {
			if err := led.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		streamRecords(t, ts.URL, key, testRecords(t, 12, 100))
		waitCaughtUp(t, f, led)
	}
	if err := ledgertest.Diff(led, f.Ledger()); err != nil {
		t.Fatalf("standby diverged across segment hops: %v", err)
	}
	st := f.Status()
	for _, sh := range st.Shards {
		if sh.Seq != 2 {
			t.Errorf("shard %d ended at seq %d, want 2: %+v", sh.Shard, sh.Seq, st)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// Bootstrap's fetch is the only one: every segment change was a hop.
	if n := requests["/cluster/snapshot"]; n != 1 {
		t.Errorf("/cluster/snapshot fetched %d times, want 1 (a hop re-bootstrapped): %v", n, requests)
	}
	t.Logf("requests to the primary: %v", requests)
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestFollowerRefusesOtherProtocol: a follower must refuse at Bootstrap a
// primary whose replication protocol is not its own — one that names none
// (every build before the number existed served bare ledger.Meta) or names
// another — instead of tailing a wire it would misread and stalling with
// its lag growing. It asks for nothing past /cluster/meta.
func TestFollowerRefusesOtherProtocol(t *testing.T) {
	for name, body := range map[string]string{
		"parent's bare meta": `{"shards":3,"windowMinutes":2,"maxKeys":4096}`,
		"another number":     fmt.Sprintf(`{"shards":3,"windowMinutes":2,"maxKeys":4096,"protocol":%d}`, cluster.Protocol+1),
	} {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var asked []string
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				asked = append(asked, r.URL.Path)
				mu.Unlock()
				if r.URL.Path != "/cluster/meta" {
					http.NotFound(w, r)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				_, _ = io.WriteString(w, body)
			}))
			t.Cleanup(stub.Close)

			err := cluster.NewFollower(stub.URL, cluster.FollowerConfig{}).Bootstrap(context.Background())
			if !errors.Is(err, cluster.ErrProtocol) {
				t.Fatalf("Bootstrap against %s = %v, want ErrProtocol", body, err)
			}
			mu.Lock()
			defer mu.Unlock()
			if !slices.Equal(asked, []string{"/cluster/meta"}) {
				t.Errorf("a refused bootstrap asked the primary for %v", asked)
			}
		})
	}
}

// TestFailoverEndToEnd is the full story: replicate, lose the primary with
// an unreplicated tail, promote the standby, and let the client's
// idempotent replay close the tail exactly once. The promoted node must
// bill byte-identically to a single node that simply saw the whole run.
func TestFailoverEndToEnd(t *testing.T) {
	cfg := primaryCfg(t.TempDir())
	led, ts := newPrimary(t, cfg)
	f, pause := newFollower(t, ts.URL)
	_, standbyTS := newNode(t, f.Ledger())

	recordsA := testRecords(t, 20, 200)
	recordsB := testRecords(t, 20, 90)

	respA := streamRecords(t, ts.URL, "run-A", recordsA)
	waitCaughtUp(t, f, led)

	// The write gate: a standby refuses ingest (503 per line, counted as
	// Dropped) while serving replicated reads.
	gate := streamRecords(t, standbyTS.URL, "", recordsA[:5])
	if gate.Accepted != 0 || gate.Dropped != 5 {
		t.Fatalf("standby gate: %+v", gate)
	}
	if len(gate.Errors) == 0 || gate.Errors[0].Error.Status != http.StatusServiceUnavailable {
		t.Fatalf("standby gate errors: %+v", gate.Errors)
	}
	var health api.HealthResponse
	resp, err := http.Get(standbyTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.Standby {
		t.Fatal("standby /healthz does not report standby")
	}

	// Replicated reads serve the primary's state.
	stP, err := api.NewClient(ts.URL).Statement(context.Background(), "tenant-000", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	stS, err := api.NewClient(standbyTS.URL).Statement(context.Background(), "tenant-000", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	jsonEq(t, "standby read", stS, stP)

	// Pause replication, land an unreplicated tail on the primary, then
	// lose it.
	pause()
	streamRecords(t, ts.URL, "run-B", recordsB)
	ts.Close()

	// Promote: replication is down, the gate opens exactly once.
	if !f.Promote() {
		t.Fatal("Promote returned false on a standby")
	}
	if f.Promote() {
		t.Fatal("second Promote returned true")
	}

	// The client replays its whole run against the promoted node. Batch A
	// was fully replicated: every line must come back Duplicate. Batch B
	// never replicated: it bills now, exactly once.
	replayA := streamRecords(t, standbyTS.URL, "run-A", recordsA)
	if replayA.Accepted != 0 {
		t.Fatalf("replay of replicated batch accepted %d records, want 0: %+v", replayA.Accepted, replayA)
	}
	if replayA.Duplicates != respA.Accepted+respA.Duplicates {
		t.Fatalf("replay duplicates = %d, want %d", replayA.Duplicates, respA.Accepted+respA.Duplicates)
	}
	streamRecords(t, standbyTS.URL, "run-B", recordsB)

	// Oracle: one node that saw the run once, no failover.
	oracle, err := ledger.New(ledgertest.Volatile(cfg))
	if err != nil {
		t.Fatal(err)
	}
	_, oracleTS := newNode(t, oracle)
	streamRecords(t, oracleTS.URL, "run-A", recordsA)
	streamRecords(t, oracleTS.URL, "run-B", recordsB)

	if err := ledgertest.DiffBills(f.Ledger(), oracle); err != nil {
		t.Fatalf("promoted node diverged from the no-failover oracle: %v", err)
	}

	// A second full replay is a no-op: nothing can bill twice.
	replayA2 := streamRecords(t, standbyTS.URL, "run-A", recordsA)
	replayB2 := streamRecords(t, standbyTS.URL, "run-B", recordsB)
	if replayA2.Accepted != 0 || replayB2.Accepted != 0 {
		t.Fatalf("second replay billed: A=%+v B=%+v", replayA2, replayB2)
	}
	if err := ledgertest.DiffBills(f.Ledger(), oracle); err != nil {
		t.Fatalf("second replay moved the bills: %v", err)
	}
	_ = led // closed via ts teardown; the ledger Cleanup closes the WAL
}

// TestFollowerTailShortVersusCorrupt pins what the follower does with WAL
// bytes it cannot decode yet, on the frame codec's own verdict: a tail that
// ends inside a frame is kept and completed by the next pull, while a frame
// that is all there and fails its CRC — or declares an impossible length —
// cannot be repaired by more bytes and forces a re-bootstrap. The proxy
// damages only each shard's first non-empty pull, so either way the standby
// must end up identical to the primary.
func TestFollowerTailShortVersusCorrupt(t *testing.T) {
	for _, c := range []struct {
		name   string
		mangle func(body []byte) []byte
		resync bool
	}{
		{"short frame waits", func(b []byte) []byte { return b[:len(b)-3] }, false},
		{"crc-bad complete frame resyncs", func(b []byte) []byte { b[frame.HeaderLen+1] ^= 0xff; return b }, true},
		{"oversized length resyncs", func(b []byte) []byte { binary.LittleEndian.PutUint32(b, 1<<30); return b }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			led, ts := newPrimary(t, primaryCfg(t.TempDir()))
			streamRecords(t, ts.URL, "run-A", testRecords(t, 16, 240))

			var mu sync.Mutex
			mangled := map[string]bool{}
			snapshots := 0
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				resp, err := http.Get(ts.URL + r.URL.RequestURI())
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
				mu.Lock()
				switch shard := r.URL.Query().Get("shard"); {
				case r.URL.Path == "/cluster/snapshot":
					snapshots++
				case r.URL.Path == "/cluster/wal" && len(body) > 0 && !mangled[shard]:
					mangled[shard] = true
					body = c.mangle(body)
				}
				mu.Unlock()
				for k, vv := range resp.Header {
					if k != "Content-Length" {
						w.Header()[k] = vv
					}
				}
				w.WriteHeader(resp.StatusCode)
				_, _ = w.Write(body)
			}))
			t.Cleanup(proxy.Close)

			f, _ := newFollower(t, proxy.URL)
			waitCaughtUp(t, f, led)
			if err := ledgertest.Diff(led, f.Ledger()); err != nil {
				t.Fatalf("standby diverged: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(mangled) == 0 {
				t.Fatal("no WAL pull was damaged")
			}
			// Bootstrap fetches the snapshot once; every further fetch is a
			// re-bootstrap.
			if resynced := snapshots > 1; resynced != c.resync {
				t.Errorf("snapshot fetched %d times (resync %v), want resync %v; status %+v", snapshots, resynced, c.resync, f.Status())
			}
		})
	}
}

// TestFollowerReusesConnections: the follower's default client pools a
// connection per shard tailer. A quiescent 16-shard primary is long-polled
// for 20 pull rounds per shard (each one /cluster/wal stream);
// http.DefaultClient keeps two idle connections per host, so it redialled
// nearly every request — 160 connections in 1.5 s on the run that found
// this.
func TestFollowerReusesConnections(t *testing.T) {
	const shards, rounds = 16, 20
	cfg := primaryCfg(t.TempDir())
	cfg.Shards = shards
	led, err := ledger.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = led.Close() })
	src := cluster.NewSource(cfg.Dir, cluster.SourceConfig{MaxWait: 50 * time.Millisecond, Poll: 2 * time.Millisecond})

	var mu sync.Mutex
	pulls := map[string]int{}
	var dials atomic.Int64
	primary := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster/wal" {
			mu.Lock()
			pulls[r.URL.Query().Get("shard")]++
			mu.Unlock()
		}
		src.ServeHTTP(w, r)
	}))
	primary.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	primary.Start()
	t.Cleanup(primary.Close)

	newFollower(t, primary.URL)
	deadline := time.Now().Add(15 * time.Second)
	for done := false; !done; time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		done = len(pulls) == shards
		for _, n := range pulls {
			done = done && n >= rounds
		}
		mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("tailers never reached %d pull rounds each: %v", rounds, pulls)
		}
	}
	if got := dials.Load(); got > shards+2 {
		t.Errorf("%d pull rounds over %d shard tailers opened %d connections to the primary, want at most %d",
			rounds, shards, got, shards+2)
	}
}
