package litmus

// Benchmark harness: BenchmarkArtifacts walks the experiment registry
// (exp.All: Table 1, Figs. 1–21, ablations A1–A3) and runs one sub-benchmark
// per paper artifact, named by its ID. Each regenerates its artifact and
// reports the experiment's headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation and prints paper-comparable numbers
// (discount percentages appear as <metric>/op values), and
// -bench 'Artifacts/E11$' runs one. Sub-benchmarks share a memoised
// calibration session, exactly as a provider amortises one calibration
// across many pricings; the first to need a given table pays for building it.
//
// The benchmarks run at a reduced Scale so the suite finishes in minutes;
// cmd/litmusbench -scale 1 runs the full-size configurations.

import (
	"io"
	"testing"

	"repro/internal/exp"
)

func BenchmarkArtifacts(b *testing.B) {
	cfg := exp.Config{Seed: 7, Scale: 0.2}
	for _, e := range exp.All() {
		b.Run(e.ID, func(b *testing.B) {
			var last *exp.Result
			for i := 0; i < b.N; i++ {
				res, err := e.Run(cfg)
				if err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				// The report litmusbench prints, through the same function.
				if err := res.Write(io.Discard, "text"); err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				last = res
			}
			for _, name := range last.MetricNames() {
				b.ReportMetric(last.Metrics[name], name)
			}
		})
	}
}
