package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/core"
)

// Sink receives the fleet's metered-record stream alongside the Meter's
// local aggregation. Implementations are called from the one goroutine that
// drives the meter: Observe once per record in stream order, Flush once
// after the last record. An Observe error marks that record undelivered;
// the meter counts it and keeps going.
type Sink interface {
	Observe(rec MeteredRecord) error
	Flush() error
}

// RemoteSinkConfig parameterises a RemoteSink. Records name no pricer: the
// service bills them with its default (litmus).
type RemoteSinkConfig struct {
	// RunID, when non-empty, stamps every record with the idempotency key
	// "RunID#seq", so a retried or replayed stream cannot double-bill.
	// Distinct runs must use distinct IDs, or the service will treat the
	// second run's records as duplicates of the first.
	RunID string
	// BatchSize is the number of records per StreamUsage call (default
	// DefaultSinkBatch).
	BatchSize int
	// Retries is how many times a failed or throttled batch is re-sent
	// before the outcome surfaces (default 0: fail fast). Permanent 4xx
	// responses other than 429 never retry. A batch that died mid-flight may
	// have partially accrued, so retries only make sense with a RunID —
	// the per-record keys turn the replayed lines into duplicates instead
	// of double-bills. That is what lets a fleet run survive a pricing-
	// service restart: the sink re-sends into the recovered ledger and the
	// service's WAL-rebuilt dedup state sorts out what already billed.
	Retries int
	// RetryWait is the base pause before the first re-send (default
	// DefaultRetryWait). Each further retry doubles it up to maxRetryWait
	// (or RetryWait itself when that is longer), and every pause is jittered
	// to half-to-full of its nominal value, so a fleet of sinks retrying a
	// restarted service spreads out instead of stampeding it in lockstep.
	RetryWait time.Duration
}

// DefaultSinkBatch is the records-per-call batch size of RemoteSink;
// DefaultRetryWait the base pause before a failed batch's first re-send;
// maxRetryWait the backoff ceiling.
const (
	DefaultSinkBatch = 256
	DefaultRetryWait = 250 * time.Millisecond
	maxRetryWait     = 5 * time.Second
)

// UsageStreamer is the one client call RemoteSink needs: api.Client
// implements it against a single node, cluster.Client against a
// consistent-hash ring of nodes. Both follow api.Client.StreamUsage's
// delivery rule: per-record outcomes, throttles included, are in the
// response; an error means the request was not processed.
type UsageStreamer interface {
	StreamUsage(ctx context.Context, key string, records []api.UsageRecord) (api.UsageStreamResponse, error)
}

// retryDelay computes the jittered exponential pause before retry number
// attempt (0-based): base<<attempt capped at max, then drawn uniformly from
// [nominal/2, nominal] via rnd (rand.Int63n in production; injected by
// tests). "Equal jitter" keeps a floor under the pause — a retry never
// fires immediately — while desynchronising concurrent retriers.
func retryDelay(attempt int, base, ceiling time.Duration, rnd func(int64) int64) time.Duration {
	nominal := base
	for i := 0; i < attempt && nominal < ceiling; i++ {
		nominal *= 2
	}
	if nominal > ceiling {
		nominal = ceiling
	}
	half := nominal / 2
	return half + time.Duration(rnd(int64(half)+1))
}

// RemoteSink forwards metered records to a live pricing service over the
// /v3 usage stream: the fleet→service half of running the simulator
// against a real pricingd. The wire format (NDJSON or binary frames) is
// the client's: set api.Client.Wire or cluster.Client.SetWire before
// building the sink. Records are batched to amortise round trips; Flush
// sends the tail and reports lines the service refused.
type RemoteSink struct {
	ctx    context.Context
	client UsageStreamer
	cfg    RemoteSinkConfig

	buf  []api.UsageRecord
	seq  int
	sent RemoteSinkStats
}

// RemoteSinkStats aggregates the service's per-line outcomes across every
// batch a RemoteSink sent.
type RemoteSinkStats struct {
	// Records counts the records handed to Observe; the embedded counts
	// echo the service's accounting for them. Throttled there counts
	// records still refused by the service's admission limiter (429) after
	// the retry budget ran out; throttled batches that eventually delivered
	// show up as Accepted/Duplicates plus Retried.
	Records int `json:"records"`
	api.UsageCounts
	// Retried counts batch re-sends — after transport failures and after
	// throttled deliveries (see RemoteSinkConfig.Retries).
	Retried int `json:"retried,omitempty"`
}

// NewRemoteSink builds a sink that streams to the service behind client —
// one node (*api.Client) or a partitioned cluster (cluster.Client).
func NewRemoteSink(ctx context.Context, client UsageStreamer, cfg RemoteSinkConfig) *RemoteSink {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultSinkBatch
	}
	if cfg.RetryWait <= 0 {
		cfg.RetryWait = DefaultRetryWait
	}
	return &RemoteSink{ctx: ctx, client: client, cfg: cfg}
}

// retryWait is the jittered pause before retry number attempt: the backoff
// ceiling is maxRetryWait, or the base itself when a caller set that higher.
func (s *RemoteSink) retryWait(attempt int) time.Duration {
	return retryDelay(attempt, s.cfg.RetryWait, max(maxRetryWait, s.cfg.RetryWait), rand.Int63n)
}

// Observe buffers one record, flushing a full batch to the service.
func (s *RemoteSink) Observe(rec MeteredRecord) error {
	s.seq++
	s.sent.Records++
	key := ""
	if s.cfg.RunID != "" {
		key = fmt.Sprintf("%s#%d", s.cfg.RunID, s.seq)
	}
	s.buf = append(s.buf, api.UsageRecord{
		QuoteRequest: api.QuoteRequest{
			Usage:  core.UsageFromRecord(rec.Record),
			Tenant: rec.Tenant,
		},
		Minute: rec.Minute,
		Key:    key,
	})
	if len(s.buf) >= s.cfg.BatchSize {
		return s.send()
	}
	return nil
}

// send streams the buffered batch, classifying each attempt's outcome
// before deciding to retry:
//
//   - A permanent 4xx (malformed record, unknown pricer — anything but 429)
//     fails fast: re-sending identical bytes cannot succeed, and burning
//     the whole retry budget on it only delays the real error.
//   - A delivery with throttled lines (some of the batch or all of it)
//     re-sends the whole batch after the server's own Retry-After delay;
//     RunID keys turn the already-admitted lines into Duplicates, so the
//     replay never double-bills. When the budget runs out the final
//     attempt's accounting folds as-is and the leftover throttles surface
//     at Flush.
//   - Transport failures and 5xx retry on the jittered exponential
//     schedule, honoring a server-suggested Retry-After (a draining 503)
//     over the blind doubling when one is present.
func (s *RemoteSink) send() error {
	if len(s.buf) == 0 {
		return nil
	}
	batch := s.buf
	s.buf = s.buf[:0]
	var lastErr error
	attempts := 0
	for attempt := 0; ; attempt++ {
		resp, err := s.client.StreamUsage(s.ctx, "", batch)
		attempts++
		var apiErr *api.Error
		if errors.As(err, &apiErr) && apiErr.Status >= 400 && apiErr.Status < 500 && apiErr.Status != http.StatusTooManyRequests {
			return fmt.Errorf("streaming %d records: permanent client error, not retried: %w", len(batch), err)
		}
		if err == nil {
			if resp.Throttled == 0 || attempt >= s.cfg.Retries || s.ctx.Err() != nil {
				// Only the final attempt of a batch is booked: a
				// throttled-then-retried batch's earlier attempts would
				// otherwise double-count its records (the retry's admitted
				// lines come back as Duplicates of the earlier Accepted).
				s.sent.Add(resp.UsageCounts)
				return nil
			}
			// Re-send the whole batch when the server suggests: waiting out
			// the longest per-line Retry-After clears every throttle in it.
			s.sent.Retried++
			wait := time.Duration(resp.RetryAfterSec * float64(time.Second))
			if wait <= 0 {
				wait = s.retryWait(attempt)
			}
			select {
			case <-s.ctx.Done():
			case <-time.After(wait):
			}
			continue
		}
		// Keep the first real transport failure: an attempt that merely
		// died of context cancellation must not mask the root cause.
		if lastErr == nil || s.ctx.Err() == nil {
			lastErr = err
		}
		if attempt >= s.cfg.Retries || s.ctx.Err() != nil {
			break
		}
		s.sent.Retried++
		wait := s.retryWait(attempt)
		if apiErr != nil && apiErr.RetryAfterSec > 0 {
			wait = time.Duration(apiErr.RetryAfterSec * float64(time.Second))
		}
		select {
		case <-s.ctx.Done():
		case <-time.After(wait):
		}
	}
	return fmt.Errorf("streaming %d records (%d attempts): %w", len(batch), attempts, lastErr)
}

// Flush sends the buffered tail. Beyond transport failures, it reports
// lines the service refused over the sink's lifetime, so a fleet run whose
// records did not all bill ends loudly.
func (s *RemoteSink) Flush() error {
	if err := s.send(); err != nil {
		return err
	}
	if s.sent.Rejected > 0 || s.sent.Dropped > 0 || s.sent.Throttled > 0 {
		return fmt.Errorf("service refused %d of %d records (%d rejected, %d ledger-dropped, %d throttled)",
			s.sent.Rejected+s.sent.Dropped+s.sent.Throttled, s.sent.Records,
			s.sent.Rejected, s.sent.Dropped, s.sent.Throttled)
	}
	return nil
}

// Stats returns the sink's cumulative delivery accounting.
func (s *RemoteSink) Stats() RemoteSinkStats { return s.sent }
