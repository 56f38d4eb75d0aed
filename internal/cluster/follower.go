package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/ledger"
)

// errResync tells the supervisor a shard's WAL position was compacted away
// on the primary: every tailer stops and the follower re-bootstraps from the
// primary's newest snapshot.
var errResync = errors.New("cluster: replication position compacted; re-bootstrapping from snapshot")

// ErrProtocol is Bootstrap's refusal of a primary that speaks another
// replication protocol, or none, which it would tail into a silent stall.
var ErrProtocol = errors.New("cluster: primary speaks a different replication protocol")

// FollowerConfig parameterises a Follower; zero values select the defaults.
type FollowerConfig struct {
	// MaxTenants is the standby ledger's post-promotion tenant cap (see
	// ledger.NewReplica); pass the primary's value to keep admission identical.
	MaxTenants int
	// Poll is the pause between reconnect attempts when a stream ends or
	// the primary is briefly unreachable (default 50ms).
	Poll time.Duration
}

// tailPos is one shard's replication position: the next byte to pull is
// offset Off of segment (shard, Seq).
type tailPos struct {
	Seq uint64
	Off int64
}

// Follower replicates a primary pricingd's ledger into a volatile hot
// standby by tailing its WAL segments over /cluster/wal. Lifecycle:
//
//	f := NewFollower(primaryURL, cfg)
//	f.Bootstrap(ctx)            // build the replica ledger from meta+snapshot
//	srv := api.New(api.Config{Ledger: f.Ledger(), ...})
//	go f.Run(ctx)               // tail every shard until ctx ends or Promote
//	serve f.Handler(srv)        // the API plus /cluster/promote, /cluster/follower
//	...primary dies...
//	f.Promote()                 // POST /cluster/promote, or AutoPromote's probes
//
// Promotion is that one call. "Is this node a standby" is the ledger's bit
// (ledger.Replica) and nothing else's — the API's 503 write gate, /healthz
// and Status all read it — and the ledger refuses accruals before the flip
// and replication input after it, so no caller can hold the halves apart.
//
// The standby ledger is volatile on purpose: its durability is the
// primary's WAL. After promotion the operator restarts it as a durable
// primary when convenient; the failover window itself is covered by the
// idempotent client replay (RunID#seq keys) that closes the unreplicated
// tail.
type Follower struct {
	// client speaks to the primary: the meta read is its Get, the snapshot
	// and WAL streams its Do. api.DefaultTransport's idle pool holds a
	// connection per shard tailer, and the client sets no overall request
	// Timeout, which would cut the long-lived tails short.
	//
	//litmus:unguarded immutable after NewFollower
	client *api.Client
	//litmus:unguarded immutable after NewFollower
	cfg FollowerConfig
	//litmus:unguarded set once by Bootstrap before Run/Ledger are called
	led *ledger.Ledger

	// mu guards the replication positions and error/lifecycle state below.
	mu      sync.Mutex
	pos     []tailPos          //litmus:guarded-by mu (one per shard, sized by resync)
	lastErr error              //litmus:guarded-by mu
	cancel  context.CancelFunc //litmus:guarded-by mu
	done    chan struct{}      //litmus:guarded-by mu (swapped per Run)
}

// NewFollower builds a follower replicating from the pricingd at primary
// (base URL, e.g. "http://host:8080").
func NewFollower(primary string, cfg FollowerConfig) *Follower {
	if cfg.Poll <= 0 {
		cfg.Poll = 50 * time.Millisecond
	}
	return &Follower{client: api.NewClient(primary), cfg: cfg}
}

// Bootstrap fetches the primary's ledger shape and newest snapshot and
// builds the standby ledger, refusing with ErrProtocol a primary whose
// replication protocol is not this build's. It must complete before Run,
// Ledger, Status, Handler or Promote.
func (f *Follower) Bootstrap(ctx context.Context) error {
	var meta metaBody
	if err := f.client.Get(ctx, "/cluster/meta", &meta); err != nil {
		return fmt.Errorf("cluster: fetching primary meta: %w", err)
	}
	if meta.Protocol != Protocol {
		return fmt.Errorf("%w: %s speaks protocol %d (0: a build that names none), this build %d; run primary and standby from one build",
			ErrProtocol, f.client.BaseURL, meta.Protocol, Protocol)
	}
	led, err := ledger.NewReplica(meta.Meta, f.cfg.MaxTenants)
	if err != nil {
		return fmt.Errorf("cluster: building standby ledger: %w", err)
	}
	f.led = led
	return f.resync(ctx)
}

// resync (re)loads the standby from the primary's newest snapshot and
// resets every shard's tail position to the snapshot's generation, which the
// document itself names. With no snapshot yet, the standby restarts empty at
// generation 0. Callers must ensure no tailer is applying concurrently.
func (f *Follower) resync(ctx context.Context) error {
	data, err := f.fetchSnapshot(ctx)
	if err != nil {
		return err
	}
	gen, err := f.led.RestoreSnapshot(data)
	if err != nil {
		return fmt.Errorf("cluster: restoring primary snapshot: %w", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pos = make([]tailPos, f.led.Shards())
	for shard := range f.pos {
		f.pos[shard].Seq = gen
	}
	return nil
}

// maxPresize bounds the Content-Length fetchSnapshot sizes one buffer by: a
// larger declared length (a damaged proxy's, say) is not trusted with one
// allocation, and that body is read by growing.
const maxPresize = 1 << 30

// fetchSnapshot pulls the primary's newest snapshot document; nil when the
// primary has none yet (404). A committed snapshot's length is known, and
// the Source sends it, so the body is read into one buffer of that length
// rather than grown by doubling; without the header it is grown.
func (f *Follower) fetchSnapshot(ctx context.Context) ([]byte, error) {
	resp, err := f.client.Do(ctx, http.MethodGet, "/cluster/snapshot", nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching snapshot: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := api.ReadError(resp)
		if resp.StatusCode == http.StatusNotFound {
			return nil, nil
		}
		return nil, fmt.Errorf("cluster: fetching snapshot: %w", apiErr)
	}
	defer resp.Body.Close()
	var data []byte
	if resp.ContentLength >= 0 && resp.ContentLength <= maxPresize {
		data = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: reading snapshot body: %w", err)
	}
	return data, nil
}

// Ledger returns the standby ledger (valid after Bootstrap).
func (f *Follower) Ledger() *ledger.Ledger { return f.led }

// Run tails every shard's WAL until ctx ends or Promote is called,
// re-bootstrapping from the snapshot whenever a tail position is compacted
// away. Transient primary outages are retried forever — an unreachable
// primary is exactly when a standby must hold its state and wait.
func (f *Follower) Run(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	f.mu.Lock()
	f.cancel, f.done = cancel, done
	f.mu.Unlock()

	// A promoted ledger refuses replication input, so a Run that starts (or
	// is still looping) after Promote has nothing left to do.
	for f.led.Replica() {
		err := f.tailAll(ctx)
		if ctx.Err() != nil {
			return
		}
		f.setErr(err)
		if errors.Is(err, errResync) {
			if err = f.resync(ctx); err == nil {
				continue
			}
			if ctx.Err() != nil {
				return
			}
			f.setErr(err)
		}
		if !sleepCtx(ctx, f.cfg.Poll) {
			return
		}
	}
}

// tailAll runs one tailer per shard and returns the first failure (every
// other tailer is cancelled). errResync aborts the round for re-bootstrap.
func (f *Follower) tailAll(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, f.led.Shards())
	var wg sync.WaitGroup
	for shard := 0; shard < f.led.Shards(); shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			errc <- f.tailShard(ctx, shard)
		}(shard)
	}
	err := <-errc
	cancel()
	wg.Wait()
	return err
}

// tailShard pulls one shard's WAL frames forever: stream from the current
// position, apply every complete frame, and move to the next segment when
// the primary ends a stream with X-Wal-Next. It returns only on ctx
// cancellation, errResync, or damaged bytes (also errResync — the snapshot
// is authority).
func (f *Follower) tailShard(ctx context.Context, shard int) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		pos := f.getPos(shard)
		n, next, err := f.pullOnce(ctx, shard, pos)
		if err != nil && ctx.Err() == nil && !errors.Is(err, errResync) {
			f.setErr(err)
		}
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, errResync):
			return errResync
		case next != 0:
			f.setPos(shard, tailPos{Seq: next})
			continue
		}
		if n == 0 {
			if !sleepCtx(ctx, f.cfg.Poll) {
				return ctx.Err()
			}
		}
	}
}

// pullOnce opens one /cluster/wal stream at pos, a record boundary, and
// applies its frames through ledger.ReadWAL, moving the shard position to
// the end of each record it applies — so the next pull, and the offset the
// primary records as acked, is always a record boundary. It returns the
// bytes applied and the seq the stream's X-Wal-Next trailer names — 0
// unless the stream ended cleanly on a frame boundary with one, which only
// a sealed segment read to its end does. A stream that ends inside a frame
// is not an error: the next pull asks for that frame again from its start.
// Of the refusals, a 404 (a segment not created yet) is a quiet wait, a 410
// (a position compacted away) is errResync, and any other is its *api.Error.
//
//litmus:allow-accrue the WAL tail applies the primary's already-decided outcomes; nothing is re-priced
func (f *Follower) pullOnce(ctx context.Context, shard int, pos tailPos) (applied int64, next uint64, err error) {
	path := fmt.Sprintf("/cluster/wal?shard=%d&seq=%d&off=%d", shard, pos.Seq, pos.Off)
	resp, err := f.client.Do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: pulling wal shard %d: %w", shard, err)
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := api.ReadError(resp)
		switch resp.StatusCode {
		case http.StatusNotFound:
			return 0, 0, nil
		case http.StatusGone:
			return 0, 0, errResync
		}
		return 0, 0, fmt.Errorf("cluster: pulling wal shard %d: %w", shard, apiErr)
	}
	defer resp.Body.Close()
	applied, err = ledger.ReadWAL(resp.Body, func(rec ledger.WALRecord, end int64) error {
		if aerr := f.led.ApplyReplica(rec); aerr != nil {
			return fmt.Errorf("%w (apply: %v)", errResync, aerr)
		}
		f.setPos(shard, tailPos{Seq: pos.Seq, Off: pos.Off + end})
		return nil
	})
	// Trailers are read with the body's EOF, and only then.
	trailer := resp.Trailer.Get(walNextTrailer)
	switch {
	case errors.Is(err, errResync):
		return applied, 0, err
	case errors.Is(err, ledger.ErrWALDamaged),
		errors.Is(err, io.ErrUnexpectedEOF) && trailer != "":
		// Damage more bytes cannot repair — a sealed segment read to its
		// end stops on a frame boundary, so a torn one is damaged too.
		return applied, 0, fmt.Errorf("%w (decode: %v)", errResync, err)
	case errors.Is(err, io.ErrUnexpectedEOF):
		return applied, 0, nil
	case err != nil:
		return applied, 0, fmt.Errorf("cluster: wal stream shard %d: %w", shard, err)
	case trailer != "":
		if next, err = strconv.ParseUint(trailer, 10, 64); err != nil || next <= pos.Seq {
			return applied, 0, fmt.Errorf("cluster: wal stream shard %d: bad %s trailer %q", shard, walNextTrailer, trailer)
		}
	}
	return applied, next, nil
}

// Promote is the whole promotion: it stops the tailers, waits until every
// one has returned, then promotes the ledger. It reports whether this call
// made the transition — true exactly once. The wait takes no context on
// purpose: a promotion abandoned half-way is a standby with no replication.
func (f *Follower) Promote() bool {
	f.mu.Lock()
	if f.cancel != nil {
		f.cancel()
	}
	done := f.done
	f.mu.Unlock()
	if done != nil {
		<-done
	}
	promoted := f.led.Promote()
	if promoted {
		log.Printf("cluster: promoted to primary; clients replay their runs to close the tail")
	}
	return promoted
}

// FollowerShard is one shard's applied replication position.
type FollowerShard struct {
	Shard int    `json:"shard"`
	Seq   uint64 `json:"seq"`
	Off   int64  `json:"off"`
}

// FollowerStatus is the follower-side replication gauge.
type FollowerStatus struct {
	Primary  string          `json:"primary"`
	Promoted bool            `json:"promoted"`
	Shards   []FollowerShard `json:"shards"`
	LastErr  string          `json:"lastErr,omitempty"`
}

// Status snapshots the follower's replication positions.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStatus{Primary: f.client.BaseURL, Promoted: !f.led.Replica()}
	if f.lastErr != nil {
		st.LastErr = f.lastErr.Error()
	}
	for shard, pos := range f.pos {
		st.Shards = append(st.Shards, FollowerShard{Shard: shard, Seq: pos.Seq, Off: pos.Off})
	}
	return st
}

func (f *Follower) getPos(shard int) tailPos {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pos[shard]
}

func (f *Follower) setPos(shard int, p tailPos) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pos[shard] = p
}

func (f *Follower) setErr(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lastErr = err
}

// sleepCtx pauses for d; false means ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
