// Package ledger is the billing subsystem behind the pricing service: a
// standalone, concurrency-safe accrual store that turns a stream of priced
// usage entries into per-tenant, time-windowed statements.
//
// It owns exactly the state that used to live request-scoped inside the HTTP
// handlers — and makes the policies around it explicit:
//
//   - accrual is idempotent under retry: entries carrying an idempotency key
//     are deduplicated, so replaying a stream cannot double-bill — within the
//     idempotency window, whose whole policy (what a key is, how many are
//     remembered, how they are saved) is keywindow.go;
//   - the tenant cap is observable, not silent: accruals dropped because the
//     ledger is full are counted and surfaced through Stats;
//   - iteration is deterministic: tenant listings are sorted by name and
//     paginate with a stable cursor, statement lines are sorted by window.
//
// The store is lock-striped: tenants are partitioned by name hash across
// Config.Shards independently locked shards, each owning its accounts and
// its idempotency window, so concurrent writers on different tenants never
// contend. Sharding is a pure throughput optimisation — the shard count can
// never change a bill. Per-tenant state lives wholly inside one shard, the
// tenant cap is enforced by an exact global atomic, and cross-shard reads
// (Tenants, Stats) merge per-shard sorted snapshots, so an N-shard ledger
// and a 1-shard ledger fed the same entries produce identical statements,
// summaries, listings and dedup outcomes (the differential harness in
// ledgertest proves this). The one per-shard policy is key eviction: each
// shard FIFO-evicts beyond its MaxKeys/Shards slice of the key budget, so
// eviction order under memory pressure — and only eviction order — depends
// on the shard count.
//
// With Config.Dir set the store is durable: every accrual is framed onto its
// shard's write-ahead-log buffer before it is applied, the buffer is written
// to the log — one write(2) per shard per accrual batch — before any result
// is returned, and fsynced by the policy of the caller's choosing
// (group-committed under FsyncAlways). A record is therefore framed, then
// written, then synced, and an acknowledgement covers exactly what the fsync
// mode promises: a reader may observe a bill whose bytes are still buffered,
// exactly as it may observe one not yet fsynced, and a crash can lose only
// bytes no acknowledgement covered. Periodic snapshots, streamed straight
// from live state, compact the logs, and New recovers the exact pre-crash
// state — accounts, statements, idempotency windows, outcome counters,
// tenant-cap occupancy — from the latest valid snapshot plus the WAL tail,
// truncating a torn final record. Durability, like sharding, can never
// change a bill: the ledgertest crash harness recovers a clone of the data
// directory truncated at every WAL offset and proves it equal to a volatile
// ledger fed the surviving records.
//
// The durable store has one description. Its shape is Meta (durable.go),
// embedded in meta.json and in every snapshot document and served to
// followers. Its state is the account and window types below, whose JSON
// tags are the snapshot document's. Its directory is a Listing with one Find
// verdict per segment (listing.go), which only the process owning the
// directory reads; no segment path is kept in memory. And a ledger is
// rebuilt from bytes — crash
// recovery, a standby's bootstrap, a standby's WAL tail — through one
// restore/replay pair (replica.go).
//
// The ledger never prices anything. Callers quote through core.Pricer and
// accrue the result, so aggregation cannot change a price.
package ledger

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Defaults applied when Config leaves the fields zero.
const (
	// DefaultMaxTenants bounds the number of tenant accounts.
	DefaultMaxTenants = 100_000
	// DefaultMaxKeys bounds the idempotency keys retained for dedup; the
	// oldest keys are evicted FIFO beyond it (evictions are counted).
	DefaultMaxKeys = 1 << 20
	// DefaultWindowMinutes is the statement aggregation window width.
	DefaultWindowMinutes = 1
	// DefaultShards is the lock-stripe count. Sixteen stripes keep writer
	// contention negligible well past typical core counts while the
	// per-shard memory overhead stays trivial.
	DefaultShards = 16
	// DefaultSnapshotEvery is the accrual count between background
	// snapshots on a durable ledger.
	DefaultSnapshotEvery = 1 << 17
	// DefaultFsyncEvery is the FsyncInterval sync period.
	DefaultFsyncEvery = 100 * time.Millisecond
)

// ErrDurability wraps WAL append and fsync failures, so callers can
// distinguish "this entry is invalid" from "the disk is failing" (the
// pricing service maps the latter to 503, not 400).
var ErrDurability = errors.New("ledger: durability failure")

// ErrReplica is what Accrue and AccrueBatch answer for every entry, valid or
// not, while the ledger is a replica (NewReplica until Promote); nothing
// changes, counters included. The pricing service maps it to a 503.
var ErrReplica = errors.New("ledger: replica: accruals go to the primary until promotion")

// Config parameterises a ledger.
type Config struct {
	// MaxTenants caps the tenant accounts; accruals naming a new tenant
	// beyond the cap are dropped (counted, reported via Stats). The cap is
	// global and exact regardless of the shard count. 0 selects
	// DefaultMaxTenants.
	MaxTenants int
	// WindowMinutes is the statement window width in trace minutes. 0
	// selects DefaultWindowMinutes.
	WindowMinutes int
	// MaxKeys budgets the retained idempotency keys across all shards:
	// each shard FIFO-evicts beyond its ceil(MaxKeys/Shards) slice, so the
	// retained total can overshoot MaxKeys by at most Shards-1 keys (every
	// shard keeps at least one, so dedup works on every shard even for
	// tiny budgets). 0 selects DefaultMaxKeys.
	MaxKeys int
	// Shards is the lock-stripe count tenants are hash-partitioned over.
	// 0 selects DefaultShards; 1 yields a fully serialized ledger.
	Shards int

	// Dir, when non-empty, makes the ledger durable: every accrual is
	// framed for a per-shard write-ahead log under Dir before it is applied
	// and written there before it is acknowledged (one write per shard per
	// Accrue or AccrueBatch call, then Fsync's policy), periodic snapshots
	// compact the logs, and New rebuilds the exact pre-crash store from the
	// latest valid snapshot plus the WAL tail (truncating a torn final
	// record). Empty Dir keeps the ledger purely in memory. Durability
	// never changes a bill: a recovered
	// ledger is observably identical to a volatile one fed the same
	// acknowledged entries (internal/ledger/ledgertest proves it at every
	// WAL truncation offset).
	Dir string
	// Fsync selects when acknowledged appends reach stable storage; the
	// zero value is FsyncAlways. See FsyncMode.
	Fsync FsyncMode
	// FsyncEvery is the FsyncInterval period; 0 selects DefaultFsyncEvery.
	FsyncEvery time.Duration
	// SnapshotEvery triggers a background compacting snapshot after this
	// many accruals. 0 selects DefaultSnapshotEvery; negative disables
	// automatic snapshots (Snapshot can still be called explicitly).
	SnapshotEvery int
	// Archive keeps WAL segments and snapshots that newer snapshots have
	// superseded instead of deleting them, at the cost of unbounded growth.
	// No pricingd flag sets it: it is the crash harness's history retention
	// (full-history replay, the fall-back to an older snapshot).
	Archive bool
}

// Entry is one priced accrual: the amounts a pricer quoted for one
// invocation, plus the attribution the ledger aggregates by.
type Entry struct {
	// Tenant owns the accrual (required; it may not hold a NUL byte, which
	// is what keeps one tenant's keys apart from another's — keywindow.go).
	Tenant string
	// Pricer names the registry entry that produced the price; statements
	// keep one billed line per pricer.
	Pricer string
	// Minute is the trace minute the usage belongs to; it selects the
	// statement window.
	Minute int
	// Commercial is the undiscounted price, Price the charged amount.
	Commercial float64
	Price      float64
	// Key, when non-empty, makes the accrual idempotent: a later entry
	// from the same tenant with the same key is reported Duplicate and not
	// billed again. Keys are scoped per tenant — one tenant's keys can
	// never suppress another tenant's billing.
	Key string
}

// Outcome reports what Accrue did with an entry.
type Outcome int

const (
	// Accrued: the entry was billed to the tenant's account.
	Accrued Outcome = iota
	// Duplicate: the entry's idempotency key was already billed; nothing
	// changed.
	Duplicate
	// Dropped: the ledger is at its tenant cap and the entry named a new
	// tenant; nothing was billed (the drop is counted).
	Dropped
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Accrued:
		return "accrued"
	case Duplicate:
		return "duplicate"
	case Dropped:
		return "dropped"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// window accumulates one statement window of one account. The JSON tags are
// the snapshot document's: the live state is the on-disk state, so capture
// and restore copy it (see clone in snapshot.go) instead of translating it.
type window struct {
	Invocations int64              `json:"invocations"`
	Commercial  float64            `json:"commercial"`
	Billed      float64            `json:"billed"`
	Bills       map[string]float64 `json:"bills,omitempty"`
}

// account accumulates one tenant; tagged like window.
type account struct {
	Invocations int64           `json:"invocations"`
	Commercial  float64         `json:"commercial"`
	Billed      float64         `json:"billed"`
	Windows     map[int]*window `json:"windows,omitempty"`
}

// Ledger is the concurrency-safe, lock-striped billing store. The zero
// value is not usable; construct with New.
type Ledger struct {
	cfg    Config
	shards []*shard

	// tenants is the exact global account count backing the tenant cap:
	// admission is add-then-check, so concurrent shards can never admit
	// past MaxTenants.
	tenants atomic.Int64

	// dur holds the persistence state; nil on a volatile ledger.
	dur *durable

	// replica is the failover write gate and the only copy of "is this node a
	// standby": set by NewReplica, cleared for good by Promote (replica.go).
	replica atomic.Bool
	// promoteMu makes RestoreSnapshot, which locks the shards one at a time,
	// atomic against Promote.
	promoteMu sync.Mutex
}

// New builds a ledger from cfg. With cfg.Dir set it opens (or creates) the
// durable store there, recovering any previous state — see Config.Dir.
func New(cfg Config) (*Ledger, error) {
	if cfg.MaxTenants < 0 || cfg.WindowMinutes < 0 || cfg.MaxKeys < 0 || cfg.Shards < 0 {
		return nil, fmt.Errorf("ledger: negative limits in config %+v", cfg)
	}
	if cfg.MaxTenants == 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	if cfg.WindowMinutes == 0 {
		cfg.WindowMinutes = DefaultWindowMinutes
	}
	if cfg.MaxKeys == 0 {
		cfg.MaxKeys = DefaultMaxKeys
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = DefaultFsyncEvery
	}
	if cfg.Fsync < FsyncAlways || cfg.Fsync > FsyncNever {
		return nil, fmt.Errorf("ledger: unknown fsync mode %d", cfg.Fsync)
	}
	perShardKeys := max(1, (cfg.MaxKeys+cfg.Shards-1)/cfg.Shards)
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		shards[i] = newShard(perShardKeys)
	}
	l := &Ledger{cfg: cfg, shards: shards}
	if cfg.Dir != "" {
		if err := l.openDurable(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Close flushes and closes the durable store (a no-op on a volatile
// ledger). The background snapshotter and syncer stop, every shard's WAL is
// synced regardless of the fsync mode, and further accruals fail with
// ErrDurability. Close is idempotent.
func (l *Ledger) Close() error {
	if l.dur == nil {
		return nil
	}
	return l.dur.closeAll()
}

// WindowMinutes returns the statement window width.
func (l *Ledger) WindowMinutes() int { return l.cfg.WindowMinutes }

// MaxTenants returns the tenant-account cap.
func (l *Ledger) MaxTenants() int { return l.cfg.MaxTenants }

// Shards returns the lock-stripe count.
func (l *Ledger) Shards() int { return len(l.shards) }

// shardFor picks the shard owning a tenant: FNV-1a over the name, written
// out inline so the hot path allocates nothing.
func (l *Ledger) shardFor(tenant string) *shard {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(tenant); i++ {
		h ^= uint32(tenant[i])
		h *= prime32
	}
	return l.shards[h%uint32(len(l.shards))]
}

// Seen reports whether the tenant has already recorded an entry under the
// given idempotency key — the read-only peek behind admission-gate retry
// bypass: a key the ledger already holds cannot bill again, so re-sending
// it is not new load. A key evicted from the bounded dedup window reports
// false, exactly as Accrue would re-bill it.
func (l *Ledger) Seen(tenant, key string) bool {
	if tenant == "" || key == "" {
		return false
	}
	sh := l.shardFor(tenant)
	k := nameKey(tenant, key)
	sh.mu.Lock()
	ok := sh.dedup.seen(k)
	sh.mu.Unlock()
	return ok
}

// Accrue bills one entry. It returns Duplicate when the entry's idempotency
// key was seen before (nothing billed), Dropped when the tenant cap blocks a
// new account (nothing billed, drop counted), and an error only for entries
// no ledger could bill — or, on a durable ledger, when the entry could not
// be made durable (wrapped ErrDurability). Only the owning shard is locked,
// so accruals for tenants on different shards proceed in parallel.
//
// On a durable ledger the entry and its outcome are framed onto the shard's
// WAL buffer before any state changes and written — one write(2) — before
// Accrue returns; with FsyncAlways it returns only after the record is on
// stable storage, so an acknowledged accrual survives a crash. Between the
// apply and the write a concurrent reader can observe the bill while its
// bytes are still buffered, exactly as it can observe one not yet fsynced;
// a crash there loses only bytes no acknowledgement covered.
func (l *Ledger) Accrue(e Entry) (Outcome, error) {
	if l.replica.Load() {
		return Dropped, ErrReplica
	}
	if err := validateEntry(e); err != nil {
		return Dropped, err
	}
	sh := l.shardFor(e.Tenant)
	sh.mu.Lock()
	outcome, watermark, err := l.accrueLocked(sh, &e)
	sh.mu.Unlock()
	if err != nil {
		return Dropped, err
	}
	if sh.wal != nil {
		// Count the append before the write and the fsync: the record is
		// applied whether or not they succeed, so WALRecords and the snapshot
		// cadence must see it either way.
		l.dur.noteAppend(1)
		if err := l.commit(sh.wal, watermark); err != nil {
			// The record is applied but not known durable; surface the
			// failing disk without undoing the bill.
			return outcome, err
		}
	}
	return outcome, nil
}

// commit is what stands between an applied record and its acknowledgement:
// the shard's pending bytes up to watermark are written, and under
// FsyncAlways fsynced. Failures come back wrapped in ErrDurability.
//
//litmus:appends
//litmus:syncs
func (l *Ledger) commit(w *walFile, watermark uint64) error {
	err := w.flush(watermark)
	if err == nil && l.cfg.Fsync == FsyncAlways {
		err = w.syncTo(watermark)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}

// accrueLocked is the accrual step — the one place a validated entry's
// outcome is decided, logged and applied. Accrue and AccrueBatch are two
// schedules (when to lock, when to fsync) around it, so they cannot diverge
// on dedup, the tenant cap or what a refused WAL append leaves behind. The
// record is framed onto the shard's WAL buffer, not written: the schedule
// owes a commit of the returned watermark (0 on a volatile ledger) before it
// acknowledges. On error — the shard's log is closed or poisoned — nothing
// was applied and nothing stays reserved.
//
//litmus:guarded-by caller holds sh.mu
//litmus:buffers
func (l *Ledger) accrueLocked(sh *shard, e *Entry) (Outcome, uint64, error) {
	key := nameKey(e.Tenant, e.Key)
	// Decide the outcome first: the WAL logs (entry, outcome) pairs, so
	// replay can apply outcomes instead of re-deciding ones that depended
	// on cross-shard state (the tenant cap).
	outcome := Accrued
	reserved := false
	if sh.dedup.seen(key) {
		outcome = Duplicate
	}
	if outcome == Accrued && sh.accounts[e.Tenant] == nil {
		// The cap check is add-then-check on the global atomic: two shards
		// racing for the last slot cannot both win, so the cap is exact —
		// a sharded ledger admits exactly the tenants a serialized one
		// would. The same tenant cannot race itself: its creation is
		// serialized by its shard's lock.
		if n := l.tenants.Add(1); n > int64(l.cfg.MaxTenants) {
			l.tenants.Add(-1)
			outcome = Dropped
		} else {
			reserved = true
		}
	}
	var watermark uint64
	if sh.wal != nil {
		var err error
		watermark, err = sh.wal.append(WALRecord{Entry: *e, Outcome: outcome})
		if err != nil {
			// Nothing was applied; release the tentative cap slot.
			if reserved {
				l.tenants.Add(-1)
			}
			return Dropped, 0, fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	sh.apply(*e, key, outcome, l.cfg.WindowMinutes)
	return outcome, watermark, nil
}

// validateEntry rejects entries no ledger could bill: the shared admission
// gate of Accrue and AccrueBatch, so the two schedules cannot diverge on
// which entries are billable.
func validateEntry(e Entry) error {
	if e.Tenant == "" {
		return fmt.Errorf("ledger: accrual requires a tenant")
	}
	// !(x >= 0) also rejects NaN; infinities are unbillable and would not
	// survive the snapshot encoding.
	if !(e.Commercial >= 0) || !(e.Price >= 0) || math.IsInf(e.Commercial, 1) || math.IsInf(e.Price, 1) {
		return fmt.Errorf("ledger: non-finite or negative amounts (commercial %v, price %v)", e.Commercial, e.Price)
	}
	if e.Minute < 0 {
		return fmt.Errorf("ledger: negative minute %d", e.Minute)
	}
	// The WAL decoder treats minutes above MaxMinute as corruption, and an
	// acknowledged record the decoder rejects would take every later record
	// in its segment down with it at recovery.
	if int64(e.Minute) > MaxMinute {
		return fmt.Errorf("ledger: minute %d exceeds %d", e.Minute, MaxMinute)
	}
	// Entries must fit a WAL frame (maxWALPayload), or a durable ledger
	// would acknowledge a record its own recovery decoder rejects —
	// poisoning every later record in the segment. Volatile ledgers
	// enforce the same bound so durability never changes which entries
	// bill.
	if n := len(e.Tenant) + len(e.Pricer) + len(e.Key); n > MaxEntryBytes {
		return fmt.Errorf("ledger: entry strings total %d bytes (max %d)", n, MaxEntryBytes)
	}
	// The WAL round-trips any bytes, the JSON snapshot only UTF-8: an
	// ill-formed key would come back from a snapshot as U+FFFD, its retry
	// would bill twice, and two such tenants could merge into one account.
	// Never acknowledge what recovery cannot reproduce — volatile ledgers
	// included, as above.
	for _, f := range [...]struct{ name, value string }{{"tenant", e.Tenant}, {"pricer", e.Pricer}, {"key", e.Key}} {
		if !utf8.ValidString(f.value) {
			return fmt.Errorf("ledger: entry %s is not valid UTF-8 (tenant %q)", f.name, e.Tenant)
		}
	}
	// The idempotency window and the version-1 snapshot's key list spell a
	// (tenant, key) pair as tenant, NUL, key (keywindow.go). That names one
	// pair only if the first NUL ends the tenant: tenant "a\x00b" with key "k"
	// and tenant "a" with key "b\x00k" would share a spelling, and on one shard
	// the second tenant's first record would be acknowledged Duplicate and
	// never billed. So a tenant may not hold a NUL — keys may — on volatile
	// ledgers too. replay does not validate: a directory a ledger older than
	// this rule wrote recovers exactly as it always did.
	if strings.IndexByte(e.Tenant, 0) >= 0 {
		return fmt.Errorf("ledger: entry tenant holds a NUL byte (tenant %q)", e.Tenant)
	}
	return nil
}

// AccrualResult is one entry's outcome from AccrueBatch, carrying exactly
// what the corresponding Accrue call would have returned.
type AccrualResult struct {
	Outcome Outcome
	Err     error
}

// AccrueBatch bills entries strictly in order with per-entry semantics
// identical to calling Accrue once per entry — same outcomes, same errors,
// same tenant-cap admission order, same dedup decisions — but amortises the
// durability cost over the batch: records are framed onto their shards' WAL
// buffers under the shard locks as usual, and each touched shard is then
// committed once — one write(2), and under FsyncAlways one fsync (group
// commit) — before any result is returned. A multi-tenant stream interleaves
// its shards, so it is the write that is per batch, not the lock: the shard
// lock is held across consecutive same-shard entries only.
//
// results must have at least len(entries) slots; slot i reports entry i. A
// failed commit surfaces as a wrapped ErrDurability on every already-applied
// entry of the failing shard — exactly the entries whose acknowledgement the
// failed write or sync voids.
func (l *Ledger) AccrueBatch(entries []Entry, results []AccrualResult) {
	if len(entries) == 0 {
		return
	}
	_ = results[len(entries)-1] // fail fast on a short results slice
	if l.replica.Load() {
		for i := range entries {
			results[i] = AccrualResult{Outcome: Dropped, Err: ErrReplica}
		}
		return
	}
	var cur *shard
	unlock := func() {
		if cur != nil {
			cur.mu.Unlock()
			cur = nil
		}
	}
	// touched/marks track each appended-to shard's max watermark for the
	// deferred commit; a batch rarely spans more than a few shards, so a
	// linear scan beats a map.
	var touched []*shard
	var marks []uint64
	appends := 0
	for i := range entries {
		e := &entries[i]
		if err := validateEntry(*e); err != nil {
			results[i] = AccrualResult{Outcome: Dropped, Err: err}
			continue
		}
		sh := l.shardFor(e.Tenant)
		if sh != cur {
			unlock()
			sh.mu.Lock()
			cur = sh
		}
		outcome, watermark, err := l.accrueLocked(sh, e)
		results[i] = AccrualResult{Outcome: outcome, Err: err}
		if err != nil || sh.wal == nil {
			continue
		}
		found := false
		for j := range touched {
			if touched[j] == sh {
				marks[j] = watermark
				found = true
				break
			}
		}
		if !found {
			touched = append(touched, sh)
			marks = append(marks, watermark)
		}
		appends++
	}
	unlock()
	if appends == 0 {
		return
	}
	l.dur.noteAppend(appends)
	for j, sh := range touched {
		err := l.commit(sh.wal, marks[j])
		if err == nil {
			continue
		}
		// The records are applied but not known durable; flag every
		// acknowledged entry of this shard without undoing the bills.
		for i := range entries {
			if results[i].Err == nil && entries[i].Tenant != "" && l.shardFor(entries[i].Tenant) == sh {
				results[i].Err = err
			}
		}
	}
}

// Summary is a tenant's aggregate bill — and, through its JSON tags, every
// tenant element the /v3 surface lists: the GET /v3/tenants pages and a
// /v3/usage reply (internal/api aliases it; a rename here is an API change).
type Summary struct {
	Tenant string `json:"tenant"`
	// Invocations counts the entries accrued to the account.
	Invocations int64 `json:"invocations"`
	// Commercial and Billed are the aggregate undiscounted and charged
	// totals; Discount is the aggregate fraction saved.
	Commercial float64 `json:"commercial"`
	Billed     float64 `json:"billed"`
	Discount   float64 `json:"discount"`
}

func summarize(tenant string, a *account) Summary {
	s := Summary{
		Tenant:      tenant,
		Invocations: a.Invocations,
		Commercial:  a.Commercial,
		Billed:      a.Billed,
	}
	if s.Commercial > 0 {
		s.Discount = 1 - s.Billed/s.Commercial
	}
	return s
}

// Summary returns one tenant's aggregate bill.
func (l *Ledger) Summary(tenant string) (Summary, bool) {
	return l.shardFor(tenant).summary(tenant)
}

// Line is one statement window: the invocations billed in
// [StartMinute, StartMinute+WindowMinutes) with commercial-vs-charged
// totals and one billed line per pricer (Bills).
type Line struct {
	Window      int                `json:"window"`
	StartMinute int                `json:"startMinute"`
	Invocations int64              `json:"invocations"`
	Commercial  float64            `json:"commercial"`
	Billed      float64            `json:"billed"`
	Bills       map[string]float64 `json:"bills"`
}

// Statement is a tenant's windowed bill over a minute range — the wire body
// of GET /v3/tenants/{tenant}/statement.
type Statement struct {
	Tenant        string `json:"tenant"`
	WindowMinutes int    `json:"windowMinutes"`
	// FromMinute / ToMinute echo the requested range; ToMinute < 0 means
	// open-ended.
	FromMinute int `json:"fromMinute"`
	ToMinute   int `json:"toMinute"`
	// Totals aggregate the included windows only.
	Invocations int64   `json:"invocations"`
	Commercial  float64 `json:"commercial"`
	Billed      float64 `json:"billed"`
	Discount    float64 `json:"discount"`
	// Lines holds the included windows sorted by window index; never nil,
	// so an empty range encodes as [].
	Lines []Line `json:"lines"`
}

// Statement returns the tenant's bill over trace minutes
// [fromMinute, toMinute]; toMinute < 0 means open-ended. Windows are
// included when they overlap the range; lines come back sorted by window.
func (l *Ledger) Statement(tenant string, fromMinute, toMinute int) (Statement, bool) {
	return l.shardFor(tenant).statement(tenant, fromMinute, toMinute, l.cfg.WindowMinutes)
}

// Tenants returns up to limit tenant summaries sorted by name, starting
// strictly after cursor (empty cursor starts at the beginning). The second
// result is the cursor for the next page, empty when the listing is done.
//
// The page is an ordered merge (MergePages) over per-shard sorted snapshots:
// each shard is locked once to copy out at most limit candidates past the
// cursor, then the merge runs lock-free. Every tenant present before the
// call appears in exactly one shard's snapshot, so a full cursor walk lists
// each of them exactly once, in order, even while accruals land concurrently.
func (l *Ledger) Tenants(cursor string, limit int) ([]Summary, string) {
	if limit <= 0 {
		return nil, ""
	}
	parts := make([][]Summary, 0, len(l.shards))
	more := false
	for _, sh := range l.shards {
		part, shMore := sh.pageAfter(cursor, limit)
		more = more || shMore
		if len(part) > 0 {
			parts = append(parts, part)
		}
	}
	return MergePages(parts, more, limit)
}

// MergePages merges per-partition tenant pages into one: each part holds one
// partition's (a shard's, or a cluster node's) first names past a common
// cursor, sorted, no tenant in two parts, and more reports that some
// partition had names beyond its part. It returns the limit smallest in
// order (never nil) and the cursor for the next page, empty when the
// listing is done.
func MergePages(parts [][]Summary, more bool, limit int) ([]Summary, string) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	page := make([]Summary, 0, min(limit, total))
	idx := make([]int, len(parts))
	for len(page) < limit {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || p[idx[i]].Tenant < parts[best][idx[best]].Tenant {
				best = i
			}
		}
		if best < 0 {
			break
		}
		page = append(page, parts[best][idx[best]])
		idx[best]++
	}
	// More tenants follow the page when the merge had leftovers, or any
	// partition was truncated — a truncated partition's remainder sorts after
	// its contribution, all of which landed on this page.
	next := ""
	if (total > limit || more) && len(page) > 0 {
		next = page[len(page)-1].Tenant
	}
	return page, next
}

// ShardStats is one shard's occupancy snapshot.
type ShardStats struct {
	// Tenants is the shard's account count; KeysTracked its retained
	// idempotency keys.
	Tenants     int `json:"tenants"`
	KeysTracked int `json:"keys"`
}

// Stats is the ledger's observability snapshot: saturation against the
// tenant cap plus the cumulative accrual counters — nothing the ledger does
// (dropping at the cap, deduplicating retries, evicting old keys) is silent.
type Stats struct {
	// Tenants is the current account count; MaxTenants the cap.
	Tenants    int
	MaxTenants int
	// Accrued / Duplicates / Dropped count Accrue outcomes since creation.
	Accrued    uint64
	Duplicates uint64
	Dropped    uint64
	// KeysTracked is the retained idempotency-key count; KeysEvicted counts
	// keys aged out FIFO past each shard's slice of MaxKeys (a retry of an
	// evicted key bills again — watch this counter).
	KeysTracked int
	KeysEvicted uint64
	// Shards holds each lock stripe's occupancy, so hot-tenant skew is
	// visible per shard.
	Shards []ShardStats
}

// Stats returns the current counters. Shards are snapshotted one at a time,
// so the totals are exact when the ledger is quiescent and approximate (per
// shard consistent) under concurrent writes.
func (l *Ledger) Stats() Stats {
	st := Stats{
		MaxTenants: l.cfg.MaxTenants,
		Shards:     make([]ShardStats, len(l.shards)),
	}
	for i, sh := range l.shards {
		sh.mu.Lock()
		ss := ShardStats{Tenants: len(sh.accounts), KeysTracked: sh.dedup.len()}
		st.Accrued += sh.accrued
		st.Duplicates += sh.duplicates
		st.Dropped += sh.dropped
		st.KeysEvicted += sh.dedup.evicted()
		sh.mu.Unlock()
		st.Shards[i] = ss
		st.Tenants += ss.Tenants
		st.KeysTracked += ss.KeysTracked
	}
	return st
}
