// Probemonitor: the paper's Fig. 7 scenario — Litmus tests as a live
// congestion monitor. A memory-intensive "Function #1" starts and stops on
// one core while probes on another core read the machine state.
//
//	go run ./examples/probemonitor
package main

import (
	"fmt"
	"log"

	litmus "repro"
)

func main() {
	const seed = 5

	pcfg := litmus.DefaultPlatformConfig(seed)
	pcfg.BodyScale = 0.2
	pcfg.StartupScale = 0.2

	fmt.Println("calibrating…")
	cal, err := litmus.Calibrate(litmus.CalibratorConfig{Platform: pcfg})
	if err != nil {
		log.Fatal(err)
	}
	models, err := litmus.FitModels(cal)
	if err != nil {
		log.Fatal(err)
	}

	p := litmus.NewPlatform(pcfg)
	m := p.Machine()

	// Light background load on cores 1-2 (like Fig. 7's short functions).
	p.StartChurn([]*litmus.FunctionSpec{
		litmus.FunctionsByAbbr()["auth-py"],
		litmus.FunctionsByAbbr()["fib-go"],
	}, 2, []int{1, 2})
	p.Warm(10e-3)

	probe := func(label string) {
		pr, err := p.ProbeStartup(litmus.ProbeFunction(litmus.Python), 3, 300)
		if err != nil {
			log.Fatal(err)
		}
		reading, err := models.NewReading(litmus.Python, pr)
		if err != nil {
			log.Fatal(err)
		}
		est, err := models.Estimate(litmus.Python.String(), reading)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%6.1f ms  %-16s est. slowdown %.3f  (MB weight %.2f, L3 misses %.2e)\n",
			m.Now()*1e3, label, est.TotalSlow, est.Weight, pr.MachineL3Misses)
	}

	probe("machine idle")

	// Function #1: a memory-bandwidth hog lands on core 0.
	hog := hogSpec()
	h := m.Spawn(hog, 0)
	p.Warm(10e-3)
	probe("hog running")
	probe("hog running")

	m.Remove(h.ID)
	p.Warm(10e-3)
	probe("hog finished")

	// Function #2 arrives.
	h2 := m.Spawn(hogSpec(), 0)
	p.Warm(10e-3)
	probe("hog #2 running")
	m.Remove(h2.ID)
	p.Warm(10e-3)
	probe("machine quiet")

	fmt.Println("\nthe probe tracks the hog's lifetime without instrumenting it (Fig. 7).")
}

// hogSpec is Fig. 7's memory-intensive function: a finite streaming kernel.
func hogSpec() *litmus.FunctionSpec {
	return &litmus.FunctionSpec{
		Name: "hog", Abbr: "hog", Language: litmus.Go, Suite: "example", MemoryMB: 2048,
		Body: []litmus.Phase{{
			Name: "stream", Instr: 400e6, CPIBase: 0.5, L2MPKI: 28,
			WSBlocks: 4096, Pattern: litmus.Scan, MLP: 8, DirtyFrac: 0.3,
		}},
	}
}
