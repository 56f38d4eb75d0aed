package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/ledger"
)

// Config parameterises a pricing server.
type Config struct {
	// Calibration is the initial table set (required).
	Calibration *core.Calibration
	// RateBase is the flat per-MB-second rate; 0 means 1 (the paper's
	// normalisation).
	RateBase float64
	// Sharing, when set, enables the litmus-method1 registry entry:
	// exclusive-core tables corrected by the pre-measured temporal-sharing
	// curve at CoRunnersPerCore.
	Sharing          *core.SharingOverhead
	CoRunnersPerCore int
	// MaxBodyBytes bounds request bodies; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxTenants bounds the billing ledger; 0 means DefaultMaxTenants.
	// Quotes naming a new tenant beyond the cap are rejected rather than
	// silently left unbilled, and drops are counted on /healthz.
	MaxTenants int
	// WindowMinutes is the statement window width in trace minutes; 0 means
	// 1 (ledger.DefaultWindowMinutes).
	WindowMinutes int
	// Shards is the ledger's lock-stripe count; parallel ingest paths
	// accrue concurrently across shards. The shard count never changes a
	// bill (see internal/ledger). 0 means DefaultShards.
	Shards int
	// MaxStreamLines bounds the physical lines read from one /v3/usage
	// stream; 0 means DefaultMaxStreamLines.
	MaxStreamLines int
	// DataDir, when non-empty, makes the billing ledger durable: accruals
	// are write-ahead-logged there, snapshots compact the logs, and a
	// restarted server recovers the exact pre-crash billing state (see
	// internal/ledger). Empty keeps the ledger in memory.
	DataDir string
	// Fsync selects the WAL sync policy: "always" (default — every
	// acknowledged accrual is on stable storage), "interval" or "never".
	Fsync string
	// SnapshotEvery triggers a compacting snapshot after that many
	// accruals; 0 selects the ledger default, negative disables automatic
	// snapshots. Ignored without DataDir.
	SnapshotEvery int
	// Ledger, when non-nil, is used as the billing store instead of building
	// one from the fields above (which are then ignored). Cluster followers
	// inject the standby ledger replication fills, so the API surface reads
	// the exact store the replication stream writes; while it is a replica
	// every ingest path answers 503 ("standby") per record and reads serve
	// the replicated state. The gate is the ledger's, the server keeps none.
	Ledger *ledger.Ledger
	// AdmissionRate, when > 0, enables per-tenant admission control on
	// /v3/usage: each tenant's records pass a token bucket whose refill
	// rate a forecaster re-sizes every AdmissionWindow from the tenant's
	// recent arrival rate (ceiling AdmissionRate records/sec). Over-limit
	// records are rejected with 429 + Retry-After, never billed. 0 disables
	// admission control entirely (no hot-path cost).
	AdmissionRate float64
	// AdmissionBurst is the token-bucket depth; 0 means 2×AdmissionRate.
	AdmissionBurst float64
	// AdmissionWindow is the forecaster's observation window; 0 means 2s.
	AdmissionWindow time.Duration
	// AdmissionBudget, when > 0, enables price-aware mode: tenants whose
	// projected cumulative bill exceeds it get their refill rate squeezed
	// first.
	AdmissionBudget float64
	// Admission, when non-nil, is used as the admission controller instead
	// of building one from the fields above (which are then ignored). Tests
	// inject manual-clock controllers here.
	Admission *admission.Controller
}

// Server is the reusable pricing service. It is an http.Handler; calibration
// tables can be hot-swapped while quotes are in flight, and all billing
// state lives in the ledger subsystem.
type Server struct {
	//litmus:unguarded frozen by New before the server is shared
	cfg Config
	//litmus:unguarded frozen by New before the server is shared
	mux *http.ServeMux

	// mu guards the swap-able pricing state below. tablesGen increments on
	// every swap; it backs the /v3/tables ETag.
	mu        sync.RWMutex
	cal       *core.Calibration
	models    *core.Models
	pricers   map[string]core.Pricer
	tablesGen uint64

	// ledger is the billing subsystem every API version accrues into; it is
	// concurrency-safe on its own and set once by New.
	//
	//litmus:unguarded frozen by New before the server is shared
	ledger *ledger.Ledger

	// admission is the per-tenant rate limiter on the /v3/usage hot path;
	// nil when admission control is disabled.
	//
	//litmus:unguarded frozen by New before the server is shared
	admission *admission.Controller

	// metrics is the per-route request accounting /healthz reports; the map
	// is frozen by New, the values are atomics.
	//
	//litmus:unguarded frozen by New before the server is shared
	metrics *serverMetrics

	// startUnix is the process-relative start time backing /healthz uptime.
	//
	//litmus:unguarded frozen by New before the server is shared
	start time.Time
}

// New builds a server from cfg, fitting models from the calibration.
func New(cfg Config) (*Server, error) {
	if cfg.Calibration == nil {
		return nil, fmt.Errorf("api: config needs a calibration")
	}
	if cfg.RateBase == 0 {
		cfg.RateBase = 1
	}
	if cfg.RateBase < 0 {
		return nil, fmt.Errorf("api: negative rate base %v", cfg.RateBase)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	if cfg.MaxStreamLines <= 0 {
		cfg.MaxStreamLines = DefaultMaxStreamLines
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	models, err := core.FitModels(cfg.Calibration)
	if err != nil {
		return nil, err
	}
	led := cfg.Ledger
	if led == nil {
		fsync, err := ledger.ParseFsyncMode(cfg.Fsync)
		if err != nil {
			return nil, err
		}
		led, err = ledger.New(ledger.Config{
			MaxTenants:    cfg.MaxTenants,
			WindowMinutes: cfg.WindowMinutes,
			Shards:        cfg.Shards,
			Dir:           cfg.DataDir,
			Fsync:         fsync,
			SnapshotEvery: cfg.SnapshotEvery,
		})
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:       cfg,
		cal:       cfg.Calibration,
		models:    models,
		tablesGen: 1,
		ledger:    led,
		start:     time.Now(),
	}
	s.admission = cfg.Admission
	if s.admission == nil && cfg.AdmissionRate > 0 {
		s.admission = admission.New(admission.Config{
			Rate:           cfg.AdmissionRate,
			Burst:          cfg.AdmissionBurst,
			ForecastWindow: cfg.AdmissionWindow,
			Budget:         cfg.AdmissionBudget,
			Stats:          led,
		})
	}
	s.pricers = s.buildPricers(models)
	s.metrics = &serverMetrics{routes: map[string]*routeMetrics{}}
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.metrics.instrument(pattern, h))
	}
	handle("/healthz", s.handleHealth)
	// /v2/quote stays while bench/ POSTs it: the harness is frozen outside
	// benchmark PRs, so the route travels with the next one (ROADMAP item
	// 5(b)). TestWireGolden fences both generations.
	handle("/v2/quote", s.handleQuote)
	handle("/v3/usage", s.handleUsageStream)
	handle("/v3/tenants", s.handleTenantList)
	handle("/v3/tenants/{tenant}/statement", s.handleStatement)
	handle("/v3/tenants/{tenant}/forecast", s.handleForecast)
	handle("/v3/tables", s.handleTablesV3)
	s.mux = mux
	return s, nil
}

// --- request metrics ---------------------------------------------------------

// routeMetrics is one route's request accounting: total requests and error
// responses (status ≥ 400), both cumulative since startup.
type routeMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
}

// serverMetrics is the cheap (two atomic adds per request) server-side
// request accounting /healthz exposes, so an external load generator can
// corroborate its client-side view against what the server actually saw.
type serverMetrics struct {
	// inFlight gauges requests currently inside a handler (a /healthz read
	// counts itself, so it reports ≥ 1).
	inFlight atomic.Int64
	// routes maps mux pattern → counters; frozen once the server is built.
	routes map[string]*routeMetrics
}

// instrument wraps a handler with the route's counters.
func (m *serverMetrics) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	rm := &routeMetrics{}
	m.routes[pattern] = rm
	return func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Add(1)
		defer m.inFlight.Add(-1)
		rm.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		if sw.status >= 400 {
			rm.errors.Add(1)
		}
	}
}

// statusWriter captures the response status for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards http.Flusher to the wrapped writer: instrumenting a
// handler must not mask its ability to stream incrementally (a masked
// Flusher silently turns a streaming response into a buffered one).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestHealth renders the counters for /healthz.
func (m *serverMetrics) requestHealth() *RequestHealth {
	rh := &RequestHealth{
		InFlight:  m.inFlight.Load(),
		Endpoints: make(map[string]EndpointHealth, len(m.routes)),
	}
	for pattern, rm := range m.routes {
		rh.Endpoints[pattern] = EndpointHealth{
			Requests: rm.requests.Load(),
			Errors:   rm.errors.Load(),
		}
	}
	return rh
}

// DefaultPricer is the registry entry used when a request names none.
const DefaultPricer = "litmus"

// buildPricers constructs the named registry against one model set.
func (s *Server) buildPricers(models *core.Models) map[string]core.Pricer {
	p := map[string]core.Pricer{
		"commercial": core.Commercial{RateBase: s.cfg.RateBase},
		"litmus":     core.Litmus{Models: models, RateBase: s.cfg.RateBase},
	}
	if s.cfg.Sharing != nil {
		p["litmus-method1"] = core.Litmus{
			Models:           models,
			RateBase:         s.cfg.RateBase,
			Sharing:          s.cfg.Sharing,
			CoRunnersPerCore: s.cfg.CoRunnersPerCore,
		}
	}
	return p
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close flushes and closes the billing ledger: on a durable server every
// acknowledged accrual is synced to the WAL regardless of the fsync policy
// and the background snapshotter stops. The admission controller's
// forecaster ticker stops too. Call it after the HTTP server has drained.
// A volatile server's Close is a no-op. Idempotent.
func (s *Server) Close() error {
	if s.admission != nil {
		s.admission.Close()
	}
	return s.ledger.Close()
}

// Durability exposes the ledger's persistence stats (Enabled=false on a
// volatile server), so operators can log recovery outcomes at startup.
func (s *Server) Durability() ledger.DurabilityStats {
	return s.ledger.Durability()
}

// --- shared plumbing -------------------------------------------------------

// WriteJSON writes v as a JSON response body under the given status: the one
// encoder every body of the surface — the node's and the router's — goes
// through, so both escape and terminate a body identically.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("api: encoding response: %v", err)
	}
}

// WriteError writes the structured error envelope.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorEnvelope{Err: Error{Status: status, Message: fmt.Sprintf(format, args...)}})
}

// DecodeBody decodes a JSON request body of at most limit bytes that holds
// one value: whitespace may follow it, a second value may not — it would go
// unread. It writes the error response itself and reports whether decoding
// succeeded.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		return false
	}
	WriteError(w, http.StatusBadRequest, "malformed JSON: %v", err)
	return false
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.ledger.Stats()
	v := Version()
	resp := HealthResponse{
		OK:                true,
		Standby:           s.ledger.Replica(),
		Version:           &v,
		UptimeSec:         int64(time.Since(s.start) / time.Second),
		Tenants:           st.Tenants,
		MaxTenants:        st.MaxTenants,
		Accrued:           st.Accrued,
		DroppedAccruals:   st.Dropped,
		DuplicateAccruals: st.Duplicates,
		IdempotencyKeys:   st.KeysTracked,
		KeysEvicted:       st.KeysEvicted,
		Shards:            len(st.Shards),
		ShardHealth:       st.Shards,
		TablesETag:        s.tablesETag(),
		Requests:          s.metrics.requestHealth(),
	}
	if d := s.ledger.Durability(); d.Enabled {
		resp.Durability = &d
	}
	if s.admission != nil {
		snap := s.admission.Snapshot()
		resp.Admission = &snap
	}
	WriteJSON(w, http.StatusOK, resp)
}

// --- GET /v3/tenants/{tenant}/forecast ---------------------------------------

// handleForecast serves the admission controller's next-window view of one
// tenant: observed vs predicted arrival rate and the live refill rate. 404s
// when admission control is disabled or the controller has never seen the
// tenant.
func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.admission == nil {
		WriteError(w, http.StatusNotFound, "admission control disabled: no forecasts (-admission-rate 0)")
		return
	}
	tenant := r.PathValue("tenant")
	fc, ok := s.admission.Forecast(tenant)
	if !ok {
		WriteError(w, http.StatusNotFound, "no admission state for tenant %q", tenant)
		return
	}
	WriteJSON(w, http.StatusOK, fc)
}

// --- /v2/quote --------------------------------------------------------------

// snapshot returns the pricer registry of one table generation. Models and
// pricers are immutable once built, so callers can price against a snapshot
// without holding the lock — and a whole stream prices against a single
// generation even if tables are swapped mid-flight.
func (s *Server) snapshot() map[string]core.Pricer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pricers
}

// quote is the one pricing step behind /v2/quote and /v3 usage records:
// validate the usage, resolve the pricer (DefaultPricer when unnamed), quote.
// One order and one error wording for every ingest path. It returns the
// resolved pricer name and the quote by value — no accrual, no allocation —
// and a structured error instead of writing, so callers embed failures
// inline.
func quote(pricers map[string]core.Pricer, req *QuoteRequest) (string, core.Quote, *Error) {
	if err := req.Usage.Validate(); err != nil {
		return "", core.Quote{}, &Error{Status: http.StatusBadRequest, Message: err.Error()}
	}
	name := req.Pricer
	if name == "" {
		name = DefaultPricer
	}
	pricer, ok := pricers[name]
	if !ok {
		return "", core.Quote{}, &Error{Status: http.StatusBadRequest, Message: fmt.Sprintf("unknown pricer %q", name)}
	}
	q, err := pricer.Quote(req.Usage)
	if err != nil {
		return "", core.Quote{}, &Error{Status: http.StatusBadRequest, Message: err.Error()}
	}
	return name, q, nil
}

// priceOne prices one request into its wire response — pure pricing, no
// accrual.
func priceOne(pricers map[string]core.Pricer, req QuoteRequest) (*QuoteResponse, *Error) {
	name, q, apiErr := quote(pricers, &req)
	if apiErr != nil {
		return nil, apiErr
	}
	return &QuoteResponse{
		Abbr:       q.Abbr,
		Tenant:     req.Tenant,
		Pricer:     name,
		Commercial: q.Commercial,
		Price:      q.Price,
		Discount:   q.Discount(),
		PPrivate:   q.PPrivate,
		PShared:    q.PShared,
		RPrivate:   q.RPrivate,
		RShared:    q.RShared,
		Estimate: EstimateBody{
			PrivSlow:   q.Estimate.PrivSlow,
			SharedSlow: q.Estimate.SharedSlow,
			TotalSlow:  q.Estimate.TotalSlow,
			Weight:     q.Estimate.Weight,
		},
	}, nil
}

// priceAndAccrue prices one request and, when it names a tenant, bills it
// through the ledger (trace minute 0, no idempotency key). A ledger drop
// (tenant cap) comes back as a 503 error with nothing billed.
func (s *Server) priceAndAccrue(pricers map[string]core.Pricer, req QuoteRequest) (*QuoteResponse, *Error) {
	resp, apiErr := priceOne(pricers, req)
	if apiErr != nil || req.Tenant == "" {
		return resp, apiErr
	}
	entry := [1]ledger.Entry{{
		Tenant:     req.Tenant,
		Pricer:     resp.Pricer,
		Commercial: resp.Commercial,
		Price:      resp.Price,
	}}
	var result [1]ledger.AccrualResult
	s.bill(entry[:], result[:], func(_ int, _ ledger.Outcome, e *Error) { apiErr = e })
	if apiErr != nil {
		return nil, apiErr
	}
	return resp, nil
}

// bill is the one accrual funnel: every ingest path — /v2/quote with one
// entry, the /v3 stream collector with a batch — bills through it, so no
// API version can bill differently. results is scratch space as long as
// entries; each(i, …) delivers entry i's outcome in API terms, in order.
func (s *Server) bill(entries []ledger.Entry, results []ledger.AccrualResult, each func(i int, outcome ledger.Outcome, apiErr *Error)) {
	s.ledger.AccrueBatch(entries, results)
	for i := range entries {
		outcome, apiErr := s.mapAccrual(results[i].Outcome, results[i].Err)
		each(i, outcome, apiErr)
	}
}

// mapAccrual translates a ledger accrual outcome into the API's terms.
func (s *Server) mapAccrual(outcome ledger.Outcome, err error) (ledger.Outcome, *Error) {
	if err != nil {
		// Clients retry against the primary, or wait for promotion.
		if errors.Is(err, ledger.ErrReplica) {
			return ledger.Dropped, &Error{Status: http.StatusServiceUnavailable, Message: "standby: writes go to the primary"}
		}
		// A failing disk is the service's fault, not the request's.
		if errors.Is(err, ledger.ErrDurability) {
			return ledger.Dropped, &Error{Status: http.StatusServiceUnavailable, Message: err.Error()}
		}
		return ledger.Dropped, &Error{Status: http.StatusBadRequest, Message: err.Error()}
	}
	if outcome == ledger.Dropped {
		return ledger.Dropped, &Error{Status: http.StatusServiceUnavailable,
			Message: fmt.Sprintf("tenant ledger full (%d tenants); record not billed", s.ledger.MaxTenants())}
	}
	return outcome, nil
}

func (s *Server) handleQuote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req QuoteRequest
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	resp, apiErr := s.priceAndAccrue(s.snapshot(), req)
	if apiErr != nil {
		WriteJSON(w, apiErr.Status, errorEnvelope{Err: *apiErr})
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// --- the table version -----------------------------------------------------

// etagLocked renders the table version as a strong ETag; callers hold mu.
//
//litmus:guarded-by caller holds mu
func (s *Server) etagLocked() string { return fmt.Sprintf("%q", fmt.Sprintf("tables-%d", s.tablesGen)) }

// tablesETag returns the current table-version ETag.
func (s *Server) tablesETag() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.etagLocked()
}

// swapTables installs a validated calibration and its fitted models when
// ifMatch is empty, "*", or names the current table version. The compare
// and the swap happen under one critical section, so two concurrent swaps
// that both read the same version cannot both win (no lost updates). It
// returns the resulting ETag and whether the swap happened.
func (s *Server) swapTables(cal *core.Calibration, models *core.Models, ifMatch string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ifMatch != "" && ifMatch != "*" && ifMatch != s.etagLocked() {
		return s.etagLocked(), false
	}
	s.cal = cal
	s.models = models
	s.pricers = s.buildPricers(models)
	s.tablesGen++
	return s.etagLocked(), true
}

// decodeTables decodes and validates a calibration body, fitting its
// models; it writes the error response itself on failure.
func (s *Server) decodeTables(w http.ResponseWriter, r *http.Request) (*core.Calibration, *core.Models, bool) {
	var cal core.Calibration
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &cal) {
		return nil, nil, false
	}
	if err := cal.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid tables: %v", err)
		return nil, nil, false
	}
	models, err := core.FitModels(&cal)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "fitting models: %v", err)
		return nil, nil, false
	}
	return &cal, models, true
}
