// Billingserver: runs the pricingd HTTP pricing flow in-process on the
// reusable service layer. It calibrates a machine, serves the versioned
// pricing API on a local port, then plays a tenant agent: it measures a
// function on a congested machine and prices it through the typed client's
// single /v2 quote before switching to the resource-oriented /v3 surface: it
// streams usage records as NDJSON under an idempotency key, proves a replay
// cannot double-bill, and reads the tenant's windowed statement back.
//
//	go run ./examples/billingserver
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	litmus "repro"
)

func main() {
	const seed = 3

	pcfg := litmus.DefaultPlatformConfig(seed)
	pcfg.BodyScale = 0.2
	pcfg.StartupScale = 0.2

	fmt.Println("calibrating provider tables…")
	cal, err := litmus.Calibrate(litmus.CalibratorConfig{Platform: pcfg})
	if err != nil {
		log.Fatal(err)
	}

	// Serve the quoting API (the same handler stack as cmd/pricingd).
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
	fmt.Printf("pricing API on http://%s\n", ln.Addr())

	// Tenant agent: run functions on a congested machine and bill them.
	p := litmus.NewPlatform(pcfg)
	p.StartChurn(litmus.Catalog(), 26, litmus.Threads(1, 26))
	p.Warm(30e-3)

	ctx := context.Background()
	client := litmus.NewPricingClient("http://" + ln.Addr().String())
	const tenant = "acme"

	// One function through POST /v2/quote.
	target := litmus.FunctionsByAbbr()["recogn-py"]
	rec, err := p.Invoke(target, 0, 600)
	if err != nil {
		log.Fatal(err)
	}
	quote, err := client.Quote(ctx, litmus.QuoteRequest{
		Usage:  litmus.UsageFromRecord(rec),
		Tenant: tenant,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPOST /v2/quote for %s:\n", rec.Abbr)
	fmt.Printf("  commercial: %10.2f MB·s\n", quote.Commercial)
	fmt.Printf("  litmus:     %10.2f MB·s (discount %.1f%%, MB weight %.2f)\n",
		quote.Price, 100*quote.Discount, quote.Estimate.Weight)

	// The /v3 surface: stream usage as NDJSON, windowed by trace minute,
	// under an idempotency key.
	var records []litmus.UsageRecord
	for minute, abbr := range []string{"aes-py", "fib-py", "thum-py"} {
		rec, err := p.Invoke(litmus.FunctionsByAbbr()[abbr], 0, 600)
		if err != nil {
			log.Fatal(err)
		}
		records = append(records, litmus.UsageRecord{
			QuoteRequest: litmus.QuoteRequest{Usage: litmus.UsageFromRecord(rec), Tenant: tenant},
			Minute:       minute,
		})
	}
	streamed, err := client.StreamUsage(ctx, "billing-demo", records)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPOST /v3/usage (NDJSON stream of %d):\n", len(records))
	fmt.Printf("  accepted: %d, duplicates: %d, rejected: %d\n",
		streamed.Accepted, streamed.Duplicates, streamed.Rejected)

	// A retry under the same key is a no-op — the service dedups it.
	replayed, err := client.StreamUsage(ctx, "billing-demo", records)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  replay under the same key: accepted %d, duplicates %d (no double-billing)\n",
		replayed.Accepted, replayed.Duplicates)

	// The windowed statement: commercial vs charged, minute by minute.
	stmt, err := client.Statement(ctx, tenant, 0, -1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGET /v3/tenants/%s/statement:\n", tenant)
	for _, line := range stmt.Lines {
		fmt.Printf("  minute %2d: %2d invocations, commercial %10.2f → billed %10.2f MB·s\n",
			line.StartMinute, line.Invocations, line.Commercial, line.Billed)
	}
	fmt.Printf("  TOTAL:     %2d invocations, commercial %10.2f → billed %10.2f (discount %.1f%%)\n",
		stmt.Invocations, stmt.Commercial, stmt.Billed, 100*stmt.Discount)
}
