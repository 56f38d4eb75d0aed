package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles are Python's statistics.quantiles(values, n=4): the cut
// points the driver judges spread by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// selfCheckRuns is the number of runs per set, the driver's own.
const selfCheckRuns = 10

// selfCheck is the repeatability mode: every workload of BENCHMARK.json
// runs in two interleaved sets (A B A B …), a pair sharing its seed and
// pairs differing in theirs, each run in a fresh process. Per end-to-end metric
// it prints each set's median, quartiles and spread, and it fails as the
// driver would: when the two medians differ by more than the metric's
// bound in either direction, or a set's spread exceeds it (set-up time
// is exempt from the spread test, as it is there).
func selfCheck(o options) error {
	o.seconds, o.trace = float64(o.bf.RunSeconds), false
	failures := 0
	for _, wl := range o.bf.Workloads {
		o.workload = wl.Name
		sets := [2]map[string][]float64{{}, {}}
		for pair := 0; pair < selfCheckRuns; pair++ {
			o.seed = int64(pair + 1)
			for set := range sets {
				res, err := runChild(o, false)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("%s: %d runs per set, %d s of work per window, failed 0 in every run\n", wl.Name, selfCheckRuns, o.bf.RunSeconds)
		fmt.Printf("  %-18s %-6s %40s %40s %8s %6s\n", "metric", "unit", "set A median [q1, q3] spread", "set B median [q1, q3] spread", "B vs A", "bound")
		for _, em := range o.bf.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][em.Name])
			b1, b2, b3 := quartiles(sets[1][em.Name])
			moved := (b2 - a2) / a2
			spread := max((a3-a1)/a2, (b3-b1)/b2)
			verdict := "ok"
			switch {
			case math.Abs(moved) > em.Bound:
				verdict = "FAIL medians differ"
				failures++
			case spread > em.Bound && em.Name != "setup_s":
				verdict = "FAIL spread"
				failures++
			}
			cell := func(q1, q2, q3 float64) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g] %4.1f%%", q2, q1, q3, 100*(q3-q1)/q2)
			}
			fmt.Printf("  %-18s %-6s %40s %40s %+7.1f%% %5.0f%% %s\n", em.Name, em.Unit, cell(a1, a2, a3), cell(b1, b2, b3), 100*moved, 100*em.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d end-to-end metrics did not repeat within their bound over two sets of runs of the same code", failures)
	}
	fmt.Println("selfcheck passed: every end-to-end metric's medians agree between the two sets within its bound, and every spread is within it")
	return nil
}
