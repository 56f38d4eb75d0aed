package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/api"
	"repro/internal/api/apitest"
	"repro/internal/core"
)

// bill is what one accepted send adds to one tenant's account, priced with
// core directly; the correctness gate sums bills and compares them with
// the statements the service returns.
type bill struct {
	n                  int64
	commercial, billed float64
}

func (b *bill) add(o bill, times int64) {
	b.n += o.n * times
	b.commercial += o.commercial * float64(times)
	b.billed += o.billed * float64(times)
}

// stream is one pre-encoded /v3/usage body.
type stream struct {
	wire    api.WireFormat
	records []api.UsageRecord
	body    []byte
	bills   map[string]bill
}

// quote is one pre-encoded /v2/quote body; it bills its tenant once.
type quote struct {
	tenant string
	body   []byte
	bill   bill
}

// inputs is everything a run sends, made from the seed alone.
type inputs struct {
	cal     *core.Calibration
	pricer  core.Pricer
	streams []stream
	quotes  []quote
	// tenants lists the pool's distinct tenants, sorted: the targets of
	// statement reads, page cursors and the billing check.
	tenants []string
}

var languages = []string{"py", "nj", "go"}

func tenantName(i int) string { return fmt.Sprintf("t%04d", i) }

// genRecord draws one congested invocation: probe readings above the
// calibration's solo baselines, so the litmus pricer discounts it.
func genRecord(rng *rand.Rand, tenant string) api.UsageRecord {
	return api.UsageRecord{
		QuoteRequest: api.QuoteRequest{
			Usage: core.Usage{
				Abbr:     fmt.Sprintf("fn-%02d", rng.Intn(32)),
				Language: languages[rng.Intn(len(languages))],
				MemoryMB: 128 * (1 + rng.Intn(8)),
				TPrivate: 0.01 + 0.2*rng.Float64(),
				TShared:  0.05 * rng.Float64(),
				Probe: &core.ProbeUsage{
					TPrivate:        apitest.SoloTPrivate * (1 + 0.6*rng.Float64()),
					TShared:         apitest.SoloTShared * (1 + 1.5*rng.Float64()),
					MachineL3Misses: math.Pow(10, 5+3*rng.Float64()),
				},
			},
			Tenant: tenant,
		},
		Minute: rng.Intn(minuteSet),
	}
}

func priceOf(p core.Pricer, u core.Usage) (bill, error) {
	q, err := p.Quote(u)
	if err != nil {
		return bill{}, err
	}
	return bill{n: 1, commercial: q.Commercial, billed: q.Price}, nil
}

func newStream(p core.Pricer, wire api.WireFormat, records []api.UsageRecord) (stream, error) {
	st := stream{wire: wire, records: records, bills: map[string]bill{}}
	for _, rec := range records {
		b, err := priceOf(p, rec.Usage)
		if err != nil {
			return stream{}, err
		}
		tb := st.bills[rec.Tenant]
		tb.add(b, 1)
		st.bills[rec.Tenant] = tb
	}
	var err error
	st.body, err = api.EncodeUsageStream(wire, records)
	return st, err
}

func newInputs(sp spec, seed int64) (*inputs, error) {
	cal := apitest.Calibration()
	models, err := core.FitModels(cal)
	if err != nil {
		return nil, err
	}
	in := &inputs{cal: cal, pricer: core.Litmus{Models: models, RateBase: 1}}
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	for s := 0; s < poolStreams; s++ {
		var owners []string
		for _, t := range rng.Perm(tenantSet)[:sp.tenants] {
			owners = append(owners, tenantName(t))
			seen[tenantName(t)] = true
		}
		records := make([]api.UsageRecord, sp.records)
		for i := range records {
			records[i] = genRecord(rng, owners[i%len(owners)])
		}
		st, err := newStream(in.pricer, sp.wire, records)
		if err != nil {
			return nil, err
		}
		in.streams = append(in.streams, st)
	}
	for t := range seen {
		in.tenants = append(in.tenants, t)
	}
	sort.Strings(in.tenants)
	if sp.rate > 0 {
		for q := 0; q < poolStreams; q++ {
			rec := genRecord(rng, in.tenants[rng.Intn(len(in.tenants))])
			b, err := priceOf(in.pricer, rec.Usage)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(rec.QuoteRequest)
			if err != nil {
				return nil, err
			}
			in.quotes = append(in.quotes, quote{tenant: rec.Tenant, body: body, bill: b})
		}
	}
	return in, nil
}

// preloadStreams renders the set-up traffic that creates sp.preload extra
// tenants, one record each, as frame streams of up to 512 records.
func preloadStreams(in *inputs, sp spec, seed int64) ([]stream, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []stream
	for done := 0; done < sp.preload; {
		n := min(512, sp.preload-done)
		records := make([]api.UsageRecord, n)
		for i := range records {
			records[i] = genRecord(rng, fmt.Sprintf("p%05d", done+i))
		}
		st, err := newStream(in.pricer, api.WireFrames, records)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		done += n
	}
	return out, nil
}
