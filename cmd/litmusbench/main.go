// Command litmusbench regenerates the paper's tables and figures.
//
// Usage:
//
//	litmusbench -list                      # the registry as a Markdown table
//	litmusbench -run E11 [-scale 0.5]      # one experiment
//	litmusbench -all [-format csv]         # the full suite
//
// Each experiment prints paper-style rows plus its headline metrics; where
// the paper states a number for a metric, the line also carries that number,
// the delta and whether the reproduction is inside the claim's band (the
// claims are typed in internal/exp's registry).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list experiments and exit")
		runID  = flag.String("run", "", "run a single experiment by ID (e.g. E11)")
		all    = flag.Bool("all", false, "run every experiment")
		scale  = flag.Float64("scale", exp.DefaultConfig().Scale, "body/repetition scale in (0,1]; 1 = full size")
		seed   = flag.Int64("seed", exp.DefaultConfig().Seed, "random seed")
		format = flag.String("format", "text", "output format: text, csv or json")
		out    = flag.String("o", "", "write output to file instead of stdout")
	)
	flag.Parse()

	// Everything the flags alone decide is refused before the output file
	// is created or an experiment runs.
	cfg := exp.Config{Seed: *seed, Scale: *scale}
	var exps []exp.Experiment
	switch {
	case *list:
		if *format != "text" {
			fatal(errors.New("-format has no effect with -list: the registry prints as one Markdown table"))
		}
	case *runID != "":
		e, ok := exp.ByID(*runID)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (try -list)", *runID))
		}
		exps = []exp.Experiment{e}
	case *all:
		exps = exp.All()
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err := errors.Join(exp.CheckFormat(*format), cfg.Validate()); err != nil {
		fatal(err)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		// A close error is the last chance to see a failed flush of the
		// results file; exiting 0 with a torn file would be worse.
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}

	if *list {
		exp.List(w)
		return
	}
	for _, e := range exps {
		if err := runOne(w, e, cfg, *format); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
	}
}

func runOne(w io.Writer, e exp.Experiment, cfg exp.Config, format string) error {
	res, err := e.Run(cfg)
	if err != nil {
		return err
	}
	return res.Write(w, format)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "litmusbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
