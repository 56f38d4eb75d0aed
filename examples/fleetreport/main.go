// Fleetreport: the fleet-scale billing story in one page. A 3-tenant
// invocation trace is synthesized (ramping toward a bursty plateau),
// expanded into timestamped arrivals on a compressed clock, and replayed
// across a 4-machine fleet with background churn; the streaming meter
// prices every completed invocation commercial-vs-Litmus and prints the
// per-tenant comparison.
//
// The same trace is then replayed under each routing policy — including
// the two cost-feedback policies, which route on the Litmus price signal
// itself — and the total bills are compared side by side: under
// interference-refunding prices, where the router sends work changes what
// tenants pay, not just how fast they run.
//
//	go run ./examples/fleetreport
package main

import (
	"fmt"
	"log"

	litmus "repro"
)

func main() {
	const seed = 11

	// A reduced-scale platform (the examples' usual fast path): scaled
	// bodies and startups, and trace minutes compressed to 0.25 simulated
	// seconds to match.
	pcfg := litmus.DefaultPlatformConfig(seed)
	pcfg.BodyScale = 0.15
	pcfg.StartupScale = 0.2

	fmt.Println("calibrating provider tables…")
	cal, err := litmus.Calibrate(litmus.CalibratorConfig{Platform: pcfg})
	if err != nil {
		log.Fatal(err)
	}
	models, err := litmus.FitModels(cal)
	if err != nil {
		log.Fatal(err)
	}

	tr, err := litmus.SynthesizeTrace(litmus.TraceSynthConfig{
		Tenants:            3,
		FunctionsPerTenant: 2,
		Minutes:            5,
		StartRate:          2,
		StepRate:           2,
		TargetRate:         8,
		Jitter:             0.2,
		Seed:               seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	arrivals, err := litmus.ExpandTrace(tr, litmus.TraceExpandConfig{MinuteSec: 0.25, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying %d invocations (%d tenants, %d minutes) over a 4-machine fleet…\n",
		len(arrivals), len(tr.Tenants()), tr.Minutes())

	simulate := func(policyName string) (*litmus.FleetReport, litmus.FleetResult) {
		policy, err := litmus.ParseRoutePolicy(policyName)
		if err != nil {
			log.Fatal(err)
		}
		report, result, err := litmus.SimulateFleet(
			litmus.FleetConfig{
				Machines:   4,
				Platform:   pcfg,
				Policy:     policy,
				ChurnCount: 8, // congested machines: the Litmus discounts bite
			},
			arrivals,
			litmus.FleetMeterConfig{
				// The cost-feedback policies route on the Litmus pricer's
				// quotes (the first non-commercial pricer); the others
				// ignore them.
				Pricers: []litmus.Pricer{
					litmus.NewCommercialPricer(1),
					litmus.NewLitmusPricer(models, 1),
				},
			},
		)
		if err != nil {
			log.Fatal(err)
		}
		return report, result
	}

	report, result := simulate("least-loaded")
	fmt.Println()
	fmt.Println(report.BillTable())
	fmt.Println(litmus.FleetMachineTable(result))

	// Replay the identical trace under each policy: total Litmus bill vs
	// the commercial baseline, so the cost-feedback routers' effect on the
	// bill is directly comparable with the load-balancing classics.
	fmt.Println("policy comparison (same trace, fresh fleet per policy):")
	fmt.Printf("  %-24s %12s %12s %10s %10s\n", "policy", "commercial", "litmus", "discount", "completed")
	for _, name := range []string{"round-robin", "least-loaded", "cheapest-projected-bill", "congestion-avoiding"} {
		rep, res := simulate(name)
		lit := rep.TotalBills["litmus"]
		discount := 0.0
		if rep.TotalCommercial > 0 {
			discount = 1 - lit/rep.TotalCommercial
		}
		fmt.Printf("  %-24s %12.1f %12.1f %9.1f%% %10d\n",
			name, rep.TotalCommercial, lit, 100*discount, res.Completed)
	}
}
