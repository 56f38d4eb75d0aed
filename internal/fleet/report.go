package fleet

import (
	"fmt"

	"repro/internal/render"
)

// BillTable renders the per-tenant commercial-vs-pricers comparison.
func (r *Report) BillTable() *render.Table {
	cols := []string{"tenant", "invocations", "commercial"}
	for _, p := range r.Pricers {
		if p == "commercial" {
			continue
		}
		cols = append(cols, p, p+"-disc")
	}
	tb := render.NewTable("Per-tenant bills (MB·s, rate-base units)", cols...)
	addRow := func(bill TenantBill) {
		row := []string{bill.Tenant, fmt.Sprintf("%d", bill.Invocations), render.F(bill.Commercial, 2)}
		for _, p := range r.Pricers {
			if p == "commercial" {
				continue
			}
			row = append(row, render.F(bill.Bills[p], 2), render.Pct(bill.Discount(p)))
		}
		tb.AddRow(row...)
	}
	for _, bill := range r.Tenants {
		addRow(bill)
	}
	total := TenantBill{
		Tenant:      "TOTAL",
		Invocations: r.Invocations,
		Commercial:  r.TotalCommercial,
		Bills:       r.TotalBills,
	}
	addRow(total)
	if r.Discounts.N > 0 {
		d := r.Discounts
		tb.AddNote("per-invocation %s discount: mean %s, min %s, p25 %s, median %s, p75 %s, max %s (n=%d)",
			r.Primary, render.Pct(d.Mean), render.Pct(d.Min), render.Pct(d.P25),
			render.Pct(d.Median), render.Pct(d.P75), render.Pct(d.Max), d.N)
	}
	if r.PricingErrors > 0 {
		if len(r.Errors) > 0 {
			tb.AddNote("%d pricing errors (first: %s)", r.PricingErrors, r.Errors[0])
		} else {
			tb.AddNote("%d pricing errors", r.PricingErrors)
		}
	}
	return tb
}

// MachineTable renders a run's per-machine occupancy and throughput.
func MachineTable(res Result) *render.Table {
	tb := render.NewTable(
		fmt.Sprintf("Fleet machines (policy %s, %.2f simulated seconds)", res.Policy, res.SimSec),
		"machine", "completed", "dropped", "peak-inflight", "peak-mem-MB", "busy-s", "util", "inv/s")
	for _, m := range res.Machines {
		tb.AddRow(
			fmt.Sprintf("%d", m.ID),
			fmt.Sprintf("%d", m.Completed),
			fmt.Sprintf("%d", m.Dropped),
			fmt.Sprintf("%d", m.PeakInflight),
			fmt.Sprintf("%d", m.PeakUsedMB),
			render.F(m.BusySec, 3),
			render.Pct(m.UtilFrac),
			render.F(m.Throughput, 1),
		)
	}
	tb.AddNote("%d completed, %d dropped fleet-wide", res.Completed, res.Dropped)
	return tb
}
