package load

import (
	"go/types"
	"strings"
	"testing"
)

// internal/ledger is the tree's hard case for test variants: its external
// test imports both the package under test and ledgertest, which go list
// recompiles against the test variant ("… [repro/internal/ledger.test]").
// Both must resolve to ONE types.Package under the bare path, or
// ledger.New(ledgertest.Volatile(cfg)) mixes two ledger.Config types and
// every `pkg == "repro/internal/ledger"` comparison in the analyzers misses.
func TestPackagesResolvesTestVariants(t *testing.T) {
	const ledger = "repro/internal/ledger"
	pkgs, err := Packages("../../ledger", true, ".")
	if err != nil {
		t.Fatal(err)
	}
	units := make(map[string]*types.Package)
	for _, p := range pkgs {
		units[p.Pkg.Path()] = p.Pkg
	}
	if len(pkgs) != 2 || units[ledger] == nil || units[ledger+"_test"] == nil {
		t.Fatalf("units = %v, want the in-package variant and the external test", units)
	}

	var direct, viaDependent *types.Package
	var walk func(p *types.Package, seen map[*types.Package]bool)
	walk = func(p *types.Package, seen map[*types.Package]bool) {
		if seen[p] {
			return
		}
		seen[p] = true
		if strings.Contains(p.Path(), " ") {
			t.Errorf("package path %q carries go list's variant suffix", p.Path())
		}
		for _, imp := range p.Imports() {
			if imp.Path() == ledger {
				if p.Path() == ledger+"_test" {
					direct = imp
				} else if p.Path() == ledger+"/ledgertest" {
					viaDependent = imp
				}
			}
			walk(imp, seen)
		}
	}
	walk(units[ledger+"_test"], make(map[*types.Package]bool))
	if direct == nil || viaDependent == nil {
		t.Fatalf("ledger not reached both ways: direct=%v via ledgertest=%v", direct, viaDependent)
	}
	if direct != viaDependent {
		t.Errorf("ledger_test sees two packages named %s: %p directly, %p through ledgertest", ledger, direct, viaDependent)
	}
	// The variant's export data, not the plain build's: only the variant
	// declares the in-package tests.
	if direct.Scope().Lookup("TestDurableRecover") == nil {
		t.Errorf("%s was read from the plain build, not the test variant", ledger)
	}
}
