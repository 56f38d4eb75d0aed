package fleet

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// MachineState is the routing-visible snapshot of one machine, taken
// between simulation quanta (no machine goroutine is running when a policy
// reads it).
type MachineState struct {
	// ID indexes the machine in the fleet.
	ID int
	// Inflight is the number of tenant invocations currently running.
	Inflight int
	// UsedMB is the memory committed to in-flight sandboxes.
	UsedMB int
	// CapMB is the machine's sandbox memory capacity.
	CapMB int
	// AvgPrice and AvgDiscount are EWMAs of the quotes the run's sink priced
	// the machine's recent completions at (under Simulate, the meter's
	// primary pricer; both zero and meaningless while HavePrice is false).
	// Under Litmus pricing the discount grows with interference, so
	// AvgDiscount doubles as a congestion signal: a machine handing out deep
	// discounts is a machine whose tenants are being slowed down.
	AvgPrice    float64
	AvgDiscount float64
	// HavePrice reports whether the sink has priced at least one of the
	// machine's completions since the run began.
	HavePrice bool
}

// Policy routes one arrival to a machine. Implementations are called from a
// single dispatcher goroutine; they may keep unsynchronised state.
type Policy interface {
	// Pick returns the index of the machine the invocation lands on.
	Pick(spec *workload.Spec, machines []MachineState) int
	// Name identifies the policy in reports and CLI flags.
	Name() string
}

// policies builds one fresh instance of every routing policy. The -policy
// flag help, ParsePolicy and its error all read the names off this list.
func policies() []Policy {
	return []Policy{&RoundRobin{}, LeastLoaded{}, BinPack{}, CheapestProjectedBill{}, CongestionAvoiding{}}
}

// PolicyNames lists the names ParsePolicy resolves, one per policy.
func PolicyNames() []string {
	var names []string
	for _, p := range policies() {
		names = append(names, p.Name())
	}
	return names
}

// ParsePolicy resolves a policy by its Name (see PolicyNames; "rr" and
// "bin-packing" are accepted aliases). The two cost-feedback policies,
// cheapest-projected-bill and congestion-avoiding, route on the quotes of
// the meter's primary pricer (MeterConfig.Pricers).
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "rr":
		name = "round-robin"
	case "bin-packing":
		name = "binpack"
	}
	for _, p := range policies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (want one of %s)", name, strings.Join(PolicyNames(), ", "))
}

// RoundRobin cycles arrivals over the machines in order, ignoring load —
// the classic front-end spray.
type RoundRobin struct {
	next int
}

// Name implements Policy.
func (r *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (r *RoundRobin) Pick(spec *workload.Spec, machines []MachineState) int {
	id := r.next % len(machines)
	r.next++
	return id
}

// LeastLoaded sends each arrival to the machine with the fewest in-flight
// invocations (ties to the lowest ID), approximating a load-balancing
// invoker with perfect load visibility.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (LeastLoaded) Pick(spec *workload.Spec, machines []MachineState) int {
	best := 0
	for i, m := range machines[1:] {
		if m.Inflight < machines[best].Inflight {
			best = i + 1
		}
	}
	return best
}

// CheapestProjectedBill routes each arrival to the machine whose recent
// completions the sink priced cheapest (MachineState.AvgPrice; ties to the lowest
// ID), minimising the tenant's projected bill. Under Litmus this chases
// discounts — congested machines charge LESS because the pricer refunds
// interference — so it deliberately trades latency for bill. Machines with
// no priced completions yet fall back to least-loaded.
type CheapestProjectedBill struct{}

// Name implements Policy.
func (CheapestProjectedBill) Name() string { return "cheapest-projected-bill" }

// Pick implements Policy.
func (CheapestProjectedBill) Pick(spec *workload.Spec, machines []MachineState) int {
	best := -1
	for i, m := range machines {
		if !m.HavePrice {
			continue
		}
		if best < 0 || m.AvgPrice < machines[best].AvgPrice {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	return LeastLoaded{}.Pick(spec, machines)
}

// CongestionAvoiding routes each arrival to the machine with the smallest
// average Litmus discount (ties to the lowest ID): a small discount means
// tenants there run near solo speed, so the policy steers new work away
// from interference using the price signal alone — no latency or
// perf-counter telemetry needed. Machines with no priced completions yet
// fall back to least-loaded.
type CongestionAvoiding struct{}

// Name implements Policy.
func (CongestionAvoiding) Name() string { return "congestion-avoiding" }

// Pick implements Policy.
func (CongestionAvoiding) Pick(spec *workload.Spec, machines []MachineState) int {
	best := -1
	for i, m := range machines {
		if !m.HavePrice {
			continue
		}
		if best < 0 || m.AvgDiscount < machines[best].AvgDiscount {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	return LeastLoaded{}.Pick(spec, machines)
}

// BinPack is memory-aware best-fit bin-packing: among machines whose free
// sandbox memory fits the invocation it picks the fullest (consolidating
// load onto few machines, the keep-alive-friendly choice); when none fits
// it falls back to the machine with the most free memory.
type BinPack struct{}

// Name implements Policy.
func (BinPack) Name() string { return "binpack" }

// Pick implements Policy.
func (BinPack) Pick(spec *workload.Spec, machines []MachineState) int {
	bestFit, leastUsed := -1, 0
	for i, m := range machines {
		if m.UsedMB < machines[leastUsed].UsedMB {
			leastUsed = i
		}
		if m.UsedMB+spec.MemoryMB > m.CapMB {
			continue
		}
		if bestFit < 0 || m.UsedMB > machines[bestFit].UsedMB {
			bestFit = i
		}
	}
	if bestFit >= 0 {
		return bestFit
	}
	return leastUsed
}
