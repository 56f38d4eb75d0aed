// Package litmusvet assembles the repo's analyzers into a driver usable two
// ways: standalone over `go list` patterns (litmusvet ./...) and as a
// go vet -vettool (implementing the vet .cfg protocol), so CI can run the
// suite with go vet's per-package build caching.
package litmusvet

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/closecheck"
	"repro/internal/analysis/fsyncorder"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/moneycmp"
	"repro/internal/analysis/onepath"
)

// Analyzers returns the litmusvet suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		closecheck.Analyzer,
		fsyncorder.Analyzer,
		lockcheck.Analyzer,
		moneycmp.Analyzer,
		onepath.Analyzer,
	}
}

// A Finding is one rendered diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// RunPackage applies every analyzer to one loaded package.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	var findings []Finding
	seen := make(map[Finding]bool)
	for _, a := range Analyzers() {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analysis.Diagnostic) {
				f := Finding{Pos: fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message}
				if !seen[f] {
					seen[f] = true
					findings = append(findings, f)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	sortFindings(findings)
	return findings, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Main is the litmusvet entry point; it returns the process exit code
// (0 clean, 1 findings, 2 operational error).
func Main(args []string, stdout, stderr io.Writer) int {
	// The go vet -vettool protocol: -V=full describes the executable for
	// build caching, -flags describes supported flags, and a *.cfg argument
	// is a single compilation unit to analyze.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			return printVersion(stdout)
		case args[0] == "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runVetCfg(args[0], stderr)
		}
	}

	// Standalone mode: litmusvet [-no-tests] [patterns...]
	tests := true
	var patterns []string
	for _, a := range args {
		switch {
		case a == "-no-tests" || a == "--no-tests":
			tests = false
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(stderr, "litmusvet: unknown flag %s\nusage: litmusvet [-no-tests] [packages]\n", a)
			return 2
		default:
			patterns = append(patterns, a)
		}
	}
	pkgs, err := load.Packages(".", tests, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "litmusvet: %v\n", err)
		return 2
	}
	exit := 0
	for _, p := range pkgs {
		exit = max(exit, analyze(p, stdout, stderr))
		if exit == 2 {
			break
		}
	}
	return exit
}

// analyze runs the suite over one package and prints its findings, one per
// line, to out; it returns the exit code they earn (see Main).
func analyze(p *load.Package, out, stderr io.Writer) int {
	findings, err := RunPackage(p.Fset, p.Files, p.Pkg, p.Info)
	if err != nil {
		fmt.Fprintf(stderr, "litmusvet: %s: %v\n", p.ImportPath, err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// printVersion implements -V=full: the output must change whenever the tool
// binary changes, or go vet's result caching would serve stale findings.
func printVersion(w io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(w, "litmusvet version devel\n")
		return 0
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(w, "litmusvet version devel\n")
		return 0
	}
	h := sha256.New()
	_, cerr := io.Copy(h, f)
	if err := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(w, "litmusvet version devel\n")
		return 0
	}
	fmt.Fprintf(w, "%s version devel buildID=%x\n", exe, h.Sum(nil))
	return 0
}

// vetConfig mirrors the JSON compilation-unit description go vet writes
// next to each package it checks: the unit to type-check plus the protocol's
// own switches.
type vetConfig struct {
	load.Unit
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetCfg analyzes the single compilation unit described by cfgPath.
func runVetCfg(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "litmusvet: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "litmusvet: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// go vet expects the tool to leave a facts file for dependents; the
	// suite keeps no cross-package facts, so an empty one suffices.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(stderr, "litmusvet: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	p, err := cfg.Check()
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "litmusvet: %v\n", err)
		return 2
	}
	return analyze(p, stderr, stderr)
}
