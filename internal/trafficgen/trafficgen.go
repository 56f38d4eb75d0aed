// Package trafficgen implements the paper's two calibration traffic
// generators (§3, Fig. 1):
//
//   - CT-Gen stresses the shared resources *before* the L3: its threads
//     miss L2 constantly but their working sets stay L3-resident, so they
//     consume L3/ring access bandwidth without touching DRAM.
//   - MB-Gen stresses the resources *after* the L3: its threads stream over
//     footprints far larger than the L3, flooding memory bandwidth and
//     continuously evicting L3 blocks. Its own memory stalls throttle it,
//     which is why its L2-miss rate trails CT-Gen's in Fig. 1(a).
//
// Both are multi-threaded; the stress level is the number of threads, each
// pinned to a distinct core (levels 1–31 on the paper's 32-core box).
package trafficgen

import (
	"fmt"

	"repro/internal/workload"
)

// Kind selects a generator.
type Kind int

// Generator kinds.
const (
	CTGen Kind = iota
	MBGen
)

// String implements fmt.Stringer with the paper's names.
func (k Kind) String() string {
	switch k {
	case CTGen:
		return "CT-Gen"
	case MBGen:
		return "MB-Gen"
	default:
		return fmt.Sprintf("gen(%d)", int(k))
	}
}

// Kinds lists both generators in display order.
func Kinds() []Kind { return []Kind{CTGen, MBGen} }

// endless is an effectively infinite instruction budget; generator threads
// run until the platform removes them.
const endless = 1e15

// ThreadSpec returns the workload model for one generator thread. Generator
// threads are raw native loops: no language runtime, so no startup phases.
func ThreadSpec(k Kind, thread int) *workload.Spec {
	var ph workload.Phase
	switch k {
	case CTGen:
		// Pointer-chase over an L3-resident buffer sized to miss L2: every
		// access leaves the core but hits the L3 (perfect reuse).
		ph = workload.Phase{
			Name: "ct-loop", Instr: endless, CPIBase: 0.50, L2MPKI: 120,
			WSBlocks: 24, Pattern: workload.Hot, MLP: 5.0, DirtyFrac: 0.05,
			Reuse: 1.0,
		}
	case MBGen:
		// Streaming walk over a 64 MiB buffer: misses L2 and L3, consuming
		// memory bandwidth and evicting victims' L3 blocks.
		ph = workload.Phase{
			Name: "mb-loop", Instr: endless, CPIBase: 0.50, L2MPKI: 28,
			WSBlocks: 4096, Pattern: workload.Scan, MLP: 8.0, DirtyFrac: 0.30,
		}
	default:
		panic(fmt.Sprintf("trafficgen: unknown kind %d", int(k)))
	}
	return &workload.Spec{
		Name:     fmt.Sprintf("%s#%d", k, thread),
		Abbr:     fmt.Sprintf("%s-%d", abbr(k), thread),
		Language: workload.Go, // native loop; language is irrelevant (no startup)
		Suite:    "trafficgen",
		MemoryMB: 128,
		Startup:  nil,
		Body:     []workload.Phase{ph},
	}
}

func abbr(k Kind) string {
	if k == CTGen {
		return "ct"
	}
	return "mb"
}

// Fleet returns level thread specs, one per stressed core.
func Fleet(k Kind, level int) []*workload.Spec {
	if level < 0 {
		level = 0
	}
	out := make([]*workload.Spec, level)
	for i := range out {
		out[i] = ThreadSpec(k, i)
	}
	return out
}
