package main

import (
	"testing"

	"repro/internal/engine"
)

// The -machine values the flag help advertises all resolve.
func TestMachineFor(t *testing.T) {
	for _, name := range []string{"cascade", "cascade-turbo", "cascade-smt", "icelake"} {
		cfg, err := engine.Preset(name, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
	if _, err := engine.Preset("pdp11", 1); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestMachineForDistinctPresets(t *testing.T) {
	smt, _ := engine.Preset("cascade-smt", 1)
	if smt.Topology.SMTWays != 2 {
		t.Error("cascade-smt is not SMT")
	}
	ice, _ := engine.Preset("icelake", 1)
	if ice.Topology.Cores != 16 {
		t.Errorf("icelake cores = %d", ice.Topology.Cores)
	}
	turbo, _ := engine.Preset("cascade-turbo", 1)
	if turbo.Governor.Name() != "turbo" {
		t.Errorf("cascade-turbo governor = %s", turbo.Governor.Name())
	}
}
