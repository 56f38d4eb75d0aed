package loadgen

import (
	"fmt"
	"strings"

	"repro/internal/render"
)

// Table renders the result as an aligned per-endpoint latency table, the
// human half of cmd/loadgen's output (the machine half is the JSON
// Result).
func (r Result) Table(title string) *render.Table {
	t := render.NewTable(title,
		"endpoint", "reqs", "err", "timeout", "shed",
		"p50 ms", "p90 ms", "p99 ms", "p999 ms", "mean ms", "max ms")
	row := func(s OpStats) {
		t.AddRow(s.Name,
			fmt.Sprint(s.Requests), fmt.Sprint(s.Errors), fmt.Sprint(s.Timeouts), fmt.Sprint(s.Shed),
			render.F(s.P50Ms, 2), render.F(s.P90Ms, 2), render.F(s.P99Ms, 2),
			render.F(s.P999Ms, 2), render.F(s.MeanMs, 2), render.F(s.MaxMs, 2))
	}
	for _, s := range r.Ops {
		row(s)
	}
	row(r.Total)
	t.AddNote("offered %.1f req/s, actual %.1f req/s over %.1fs; error rate %.4f; pacer lateness p99 %.1f ms, max %.1f ms (latencies run from due time)",
		r.OfferedRate, r.ActualRate, r.DurationSec, r.ErrorRate, r.LatenessP99Ms, r.MaxLatenessMs)
	return t
}

// Table renders the search trajectory and verdict.
func (s SearchResult) Table() *render.Table {
	t := render.NewTable("max sustainable throughput",
		"probe", "rate req/s", "met", "p99 ms", "err rate")
	for i, p := range s.Probes {
		t.AddRow(fmt.Sprint(i+1), render.F(p.Rate, 1), fmt.Sprint(p.Met),
			render.F(p.Result.Total.P99Ms, 2), render.F(p.Result.ErrorRate, 4))
	}
	verdict := "no sustainable rate in bracket"
	if s.MaxSustainable > 0 {
		verdict = fmt.Sprintf("max sustainable ≈ %.1f req/s", s.MaxSustainable)
		if s.FirstFailing > 0 {
			verdict += fmt.Sprintf(" (first failing %.1f)", s.FirstFailing)
		}
	}
	t.AddNote("%s", verdict)
	return t
}

// Summary is a one-line human description of a run.
func (r Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.1f req/s → p50 %.2fms p99 %.2fms p999 %.2fms, %d reqs, error rate %.4f",
		r.ActualRate, r.Total.P50Ms, r.Total.P99Ms, r.Total.P999Ms, r.Total.Requests, r.ErrorRate)
	return b.String()
}
