// Command litmuscalib runs the provider's offline calibration pass and
// writes the congestion + performance tables as JSON (the file cmd/pricingd
// serves prices from).
//
// Usage:
//
//	litmuscalib -machine cascade -o tables.json
//	litmuscalib -machine icelake -share 10 -scale 0.5 -o tables-m2.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
)

func main() {
	var (
		machine = flag.String("machine", "cascade", "machine preset: cascade, cascade-turbo, cascade-smt, icelake")
		share   = flag.Int("share", 1, "functions per core during calibration (1 = exclusive cores; 10 = paper's Method 2)")
		scale   = flag.Float64("scale", 1.0, "body scale in (0,1]")
		seed    = flag.Int64("seed", 7, "random seed")
		out     = flag.String("o", "tables.json", "output file")
	)
	flag.Parse()

	mcfg, err := engine.Preset(*machine, *seed)
	if err != nil {
		fatal(err)
	}
	pcfg := platform.Config{Machine: mcfg, BodyScale: *scale, Seed: *seed}
	if err := pcfg.Validate(); err != nil {
		fatal(err)
	}
	ccfg := core.CalibratorConfig{Platform: pcfg, SharePerCore: *share}
	if *share > 1 {
		// Sharing reserves 5 measurement cores; keep the sweep within the
		// machine (see the paper's Method 2 setup: 50 functions, 5 cores).
		maxLevel := mcfg.Topology.HWThreads() - 5
		var levels []int
		for _, l := range core.DefaultLevels() {
			if l <= maxLevel {
				levels = append(levels, l)
			}
		}
		ccfg.Levels = levels
	}

	fmt.Fprintf(os.Stderr, "calibrating %s (share %d, scale %.2f)…\n", *machine, *share, *scale)
	cal, err := core.Calibrate(ccfg)
	if err != nil {
		fatal(err)
	}
	data, err := cal.Encode()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d generators, %d levels)\n",
		*out, len(cal.Generators), len(cal.Generators[0].Rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "litmuscalib:", err)
	os.Exit(1)
}
