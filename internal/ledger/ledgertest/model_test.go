package ledgertest

// The reference model: the ledger's billing rules restated as plain maps,
// one entry at a time, from the exported docs of package ledger (Config,
// Entry, Outcome, AccrueBatch, Statement, Tenants, Stats). It shares no
// function with the ledger — only its exported types and constants — so a
// fault in the ledger's accrual step, its shards, its key window or its
// readers cannot hide by being in the oracle too.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"strings"
	"unicode/utf8"

	"repro/internal/ledger"
)

// model is a sequential ledger: no locks, no shards but the key budget's,
// no durability. failWrites makes it a durable ledger whose log refuses
// every append (a closed one): every billable entry fails with
// ledger.ErrDurability and nothing changes.
type model struct {
	maxTenants    int
	windowMinutes int
	keyBudget     int // per shard: ceil(MaxKeys/Shards), at least 1
	failWrites    bool

	accounts map[string]*modelAccount
	keys     []modelKeys // one FIFO per shard

	accrued, duplicates, dropped uint64
}

// pairKey is one tenant's idempotency key.
type pairKey struct{ tenant, key string }

// modelKeys is one shard's retained keys, oldest first.
type modelKeys struct {
	fifo    []pairKey
	held    map[pairKey]bool
	evicted uint64
}

type modelAccount struct {
	invocations        int64
	commercial, billed float64
	windows            map[int]*modelWindow
}

type modelWindow struct {
	invocations        int64
	commercial, billed float64
	bills              map[string]float64
}

// newModel is a model configured as ledger.New(cfg) would be, durability
// fields ignored.
func newModel(cfg ledger.Config) *model {
	orDefault := func(v, d int) int {
		if v == 0 {
			return d
		}
		return v
	}
	shards := orDefault(cfg.Shards, ledger.DefaultShards)
	maxKeys := orDefault(cfg.MaxKeys, ledger.DefaultMaxKeys)
	m := &model{
		maxTenants:    orDefault(cfg.MaxTenants, ledger.DefaultMaxTenants),
		windowMinutes: orDefault(cfg.WindowMinutes, ledger.DefaultWindowMinutes),
		keyBudget:     max(1, (maxKeys+shards-1)/shards),
		accounts:      map[string]*modelAccount{},
		keys:          make([]modelKeys, shards),
	}
	for i := range m.keys {
		m.keys[i].held = map[pairKey]bool{}
	}
	return m
}

// modelOf is the model for cfg fed entries in order.
func modelOf(cfg ledger.Config, entries []ledger.Entry) (*model, []ledger.AccrualResult) {
	m := newModel(cfg)
	return m, m.drive(entries)
}

// drive bills entries in order and returns each one's result.
func (m *model) drive(entries []ledger.Entry) []ledger.AccrualResult {
	out := make([]ledger.AccrualResult, len(entries))
	for i, e := range entries {
		out[i].Outcome, out[i].Err = m.accrue(e)
	}
	return out
}

// keysOf returns the shard FIFO holding tenant's keys.
func (m *model) keysOf(tenant string) *modelKeys {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return &m.keys[h.Sum32()%uint32(len(m.keys))]
}

// validate is Entry's list of entries no ledger could bill.
func validate(e ledger.Entry) error {
	switch {
	case e.Tenant == "":
		return errors.New("no tenant")
	case strings.Contains(e.Tenant, "\x00"):
		return errors.New("tenant holds a NUL byte")
	case !(e.Commercial >= 0) || !(e.Price >= 0) || math.IsInf(e.Commercial, 0) || math.IsInf(e.Price, 0):
		return errors.New("negative or non-finite amount")
	case e.Minute < 0 || int64(e.Minute) > ledger.MaxMinute:
		return errors.New("minute out of range")
	case len(e.Tenant)+len(e.Pricer)+len(e.Key) > ledger.MaxEntryBytes:
		return errors.New("entry strings too long")
	case !utf8.ValidString(e.Tenant) || !utf8.ValidString(e.Pricer) || !utf8.ValidString(e.Key):
		return errors.New("not valid UTF-8")
	}
	return nil
}

// accrue bills one entry: a key billed before is a Duplicate, a new tenant
// past the cap is Dropped, anything else bills; only a billed entry records
// its key, evicting its shard's oldest past the budget.
func (m *model) accrue(e ledger.Entry) (ledger.Outcome, error) {
	if err := validate(e); err != nil {
		return ledger.Dropped, err
	}
	if m.failWrites {
		return ledger.Dropped, fmt.Errorf("%w: the log refuses appends", ledger.ErrDurability)
	}
	keys, k := m.keysOf(e.Tenant), pairKey{e.Tenant, e.Key}
	if e.Key != "" && keys.held[k] {
		m.duplicates++
		return ledger.Duplicate, nil
	}
	a := m.accounts[e.Tenant]
	if a == nil {
		if len(m.accounts) >= m.maxTenants {
			m.dropped++
			return ledger.Dropped, nil
		}
		a = &modelAccount{windows: map[int]*modelWindow{}}
		m.accounts[e.Tenant] = a
	}
	if e.Key != "" {
		for len(keys.fifo) >= m.keyBudget {
			delete(keys.held, keys.fifo[0])
			keys.fifo = keys.fifo[1:]
			keys.evicted++
		}
		keys.fifo = append(keys.fifo, k)
		keys.held[k] = true
	}
	w := a.windows[e.Minute/m.windowMinutes]
	if w == nil {
		w = &modelWindow{bills: map[string]float64{}}
		a.windows[e.Minute/m.windowMinutes] = w
	}
	a.invocations++
	a.commercial += e.Commercial
	a.billed += e.Price
	w.invocations++
	w.commercial += e.Commercial
	w.billed += e.Price
	w.bills[e.Pricer] += e.Price
	m.accrued++
	return ledger.Accrued, nil
}

// seen is SeenBatch's answer for one entry: its tenant holds its key.
func (m *model) seen(e ledger.Entry) bool {
	return e.Tenant != "" && e.Key != "" && m.keysOf(e.Tenant).held[pairKey{e.Tenant, e.Key}]
}

func (m *model) Stats() ledger.Stats {
	st := ledger.Stats{
		Tenants:    len(m.accounts),
		MaxTenants: m.maxTenants,
		Accrued:    m.accrued,
		Duplicates: m.duplicates,
		Dropped:    m.dropped,
	}
	for _, k := range m.keys {
		st.KeysTracked += len(k.fifo)
		st.KeysEvicted += k.evicted
	}
	return st
}

func (m *model) Summary(tenant string) (ledger.Summary, bool) {
	a, ok := m.accounts[tenant]
	if !ok {
		return ledger.Summary{}, false
	}
	s := ledger.Summary{Tenant: tenant, Invocations: a.invocations, Commercial: a.commercial, Billed: a.billed}
	if s.Commercial > 0 {
		s.Discount = 1 - s.Billed/s.Commercial
	}
	return s, true
}

// Tenants pages the names in order: the limit first past cursor, and the
// last of them as the next cursor when more follow.
func (m *model) Tenants(cursor string, limit int) ([]ledger.Summary, string) {
	if limit <= 0 {
		return nil, ""
	}
	var names []string
	for name := range m.accounts {
		if name > cursor {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	page := make([]ledger.Summary, 0, min(limit, len(names)))
	for _, name := range names[:min(limit, len(names))] {
		s, _ := m.Summary(name)
		page = append(page, s)
	}
	if len(names) > limit {
		return page, names[limit-1]
	}
	return page, ""
}

// Statement lists the windows overlapping [fromMinute, toMinute] (toMinute
// < 0 is open-ended) in window order, and totals them in that order.
func (m *model) Statement(tenant string, fromMinute, toMinute int) (ledger.Statement, bool) {
	a, ok := m.accounts[tenant]
	if !ok {
		return ledger.Statement{}, false
	}
	st := ledger.Statement{
		Tenant:        tenant,
		WindowMinutes: m.windowMinutes,
		FromMinute:    fromMinute,
		ToMinute:      toMinute,
		Lines:         []ledger.Line{},
	}
	for _, widx := range slices.Sorted(maps.Keys(a.windows)) {
		first, last := widx*m.windowMinutes, (widx+1)*m.windowMinutes-1
		if last < fromMinute || (toMinute >= 0 && first > toMinute) {
			continue
		}
		w := a.windows[widx]
		bills := ledger.Bills{}
		for _, pricer := range slices.Sorted(maps.Keys(w.bills)) {
			bills = append(bills, ledger.Bill{Pricer: pricer, Billed: w.bills[pricer]})
		}
		st.Lines = append(st.Lines, ledger.Line{
			Window:      widx,
			StartMinute: first,
			Invocations: w.invocations,
			Commercial:  w.commercial,
			Billed:      w.billed,
			Bills:       bills,
		})
		st.Invocations += w.invocations
		st.Commercial += w.commercial
		st.Billed += w.billed
	}
	if st.Commercial > 0 {
		st.Discount = 1 - st.Billed/st.Commercial
	}
	return st, true
}

// errClass names what kind of refusal err is, the part of an error the
// model and the ledger must agree on (the wording is the ledger's own).
func errClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, ledger.ErrDurability):
		return "durability"
	case errors.Is(err, ledger.ErrReplica):
		return "replica"
	}
	return "invalid entry"
}

// diffResults compares a ledger's per-entry results with the model's:
// the same outcome and the same kind of error, entry by entry.
func diffResults(got, want []ledger.AccrualResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, model has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Outcome != want[i].Outcome || errClass(got[i].Err) != errClass(want[i].Err) {
			return fmt.Errorf("entry %d = %v (%v), model = %v (%v)", i, got[i].Outcome, got[i].Err, want[i].Outcome, want[i].Err)
		}
	}
	return nil
}

// outcomesOf strips results down to their outcomes.
func outcomesOf(results []ledger.AccrualResult) []ledger.Outcome {
	out := make([]ledger.Outcome, len(results))
	for i, r := range results {
		out[i] = r.Outcome
	}
	return out
}
