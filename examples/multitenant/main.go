// Multitenant: the paper's Fig. 11 scenario as a program, billed through
// the versioned pricing service. Fourteen tenant functions are priced on a
// machine churning 26 co-runners: each measurement travels through one
// /v2/quote call, the ideal oracle prices them locally for comparison, and
// the fleet tenant's /v3 statement reports the aggregate bill.
//
//	go run ./examples/multitenant
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"time"

	litmus "repro"
)

func main() {
	const seed = 11

	pcfg := litmus.DefaultPlatformConfig(seed)
	pcfg.BodyScale = 0.15
	pcfg.StartupScale = 0.2

	fmt.Println("calibrating provider tables…")
	cal, err := litmus.Calibrate(litmus.CalibratorConfig{Platform: pcfg})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("measuring solo baselines…")
	tenants := litmus.TestSet()
	baselines, err := litmus.Baselines(pcfg, tenants)
	if err != nil {
		log.Fatal(err)
	}

	// The provider's pricing service, served over HTTP as in production.
	server, err := litmus.NewPricingServer(litmus.PricingServerConfig{Calibration: cal})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	defer srv.Close()
	client := litmus.NewPricingClient("http://" + ln.Addr().String())

	p := litmus.NewPlatform(pcfg)
	p.StartChurn(litmus.Catalog(), 26, litmus.Threads(1, 26))
	p.Warm(30e-3)

	// Measure all fourteen tenants, then bill each one under a single fleet
	// tenant so the ledger shows the aggregate.
	const fleet = "fig11-fleet"
	var usages []litmus.Usage
	for _, spec := range tenants {
		rec, err := p.Invoke(spec, 0, 600)
		if err != nil {
			log.Fatal(err)
		}
		usages = append(usages, litmus.UsageFromRecord(rec))
	}
	ctx := context.Background()

	ideal := litmus.NewIdealPricer(1, baselines)
	fmt.Printf("\n%-12s %10s %10s %10s %9s %9s\n",
		"tenant", "commercial", "litmus", "ideal", "L-disc", "I-disc")
	var sumLog, sumLogIdeal float64
	for _, u := range usages {
		ql, err := client.Quote(ctx, litmus.QuoteRequest{Usage: u, Tenant: fleet})
		if err != nil {
			log.Fatal(err)
		}
		qi, err := ideal.Quote(u)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10.2f %10.2f %10.2f %8.1f%% %8.1f%%\n",
			ql.Abbr, ql.Commercial, ql.Price, qi.Price,
			ql.Discount*100, qi.Discount()*100)
		sumLog += math.Log(ql.Price / ql.Commercial)
		sumLogIdeal += math.Log(qi.Price / qi.Commercial)
	}
	n := float64(len(tenants))
	gl := math.Exp(sumLog / n)
	gi := math.Exp(sumLogIdeal / n)
	fmt.Printf("\ngmean normalized price: litmus %.3f (discount %.1f%%), ideal %.3f (discount %.1f%%)\n",
		gl, (1-gl)*100, gi, (1-gi)*100)
	fmt.Printf("paper (Fig. 11): litmus 10.7%% vs ideal 10.3%%\n")

	stmt, err := client.Statement(ctx, fleet, 0, -1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprovider ledger for %s: %d invocations, commercial %.2f → billed %.2f MB·s (aggregate discount %.1f%%)\n",
		fleet, stmt.Invocations, stmt.Commercial, stmt.Billed, 100*stmt.Discount)
}
