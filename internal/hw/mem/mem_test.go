package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func testCfg() Config {
	return Config{
		PeakBytesPerSec:   100e9,
		BaseLatencyCycles: 200,
		QueueSensitivity:  1,
		MaxUtilization:    0.95,
	}
}

func TestValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{PeakBytesPerSec: 0, BaseLatencyCycles: 1, MaxUtilization: 0.9},
		{PeakBytesPerSec: 1, BaseLatencyCycles: 0, MaxUtilization: 0.9},
		{PeakBytesPerSec: 1, BaseLatencyCycles: 1, MaxUtilization: 0},
		{PeakBytesPerSec: 1, BaseLatencyCycles: 1, MaxUtilization: 1},
		{PeakBytesPerSec: 1, BaseLatencyCycles: 1, MaxUtilization: 0.9, QueueSensitivity: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestUnloadedLatency(t *testing.T) {
	s := New(testCfg())
	s.EndQuantum(1e-3)
	if got := s.LatencyCycles(); got != 200 {
		t.Errorf("unloaded latency = %v, want 200", got)
	}
	if got := s.ThroughputScale(); got != 1 {
		t.Errorf("unloaded throughput scale = %v, want 1", got)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	s := New(testCfg())
	// 100 GB/s peak, 1 ms quantum → 100 MB saturates.
	s.Demand(50e6)
	s.EndQuantum(1e-3)
	if got := s.Utilization(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	// Demand accumulator must reset between quanta.
	s.EndQuantum(1e-3)
	if got := s.Utilization(); got != 0 {
		t.Errorf("utilization after empty quantum = %v, want 0", got)
	}
}

func TestNegativeDemandIgnored(t *testing.T) {
	s := New(testCfg())
	s.Demand(-5)
	s.EndQuantum(1e-3)
	if got := s.Utilization(); got != 0 {
		t.Errorf("negative demand leaked into utilization: %v", got)
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	cfg := testCfg()
	prev := 0.0
	for u := 0.0; u <= 2.0; u += 0.05 {
		l := LatencyAt(cfg, u)
		if l < prev {
			t.Fatalf("latency not monotone at u=%v: %v < %v", u, l, prev)
		}
		prev = l
	}
}

func TestLatencyCapped(t *testing.T) {
	cfg := testCfg()
	atCap := LatencyAt(cfg, cfg.MaxUtilization)
	//litmus:float-eq-ok differential: above the cap both calls take the identical clamped path
	if got := LatencyAt(cfg, 5); got != atCap {
		t.Errorf("latency above cap = %v, want capped %v", got, atCap)
	}
	if math.IsInf(atCap, 0) || math.IsNaN(atCap) {
		t.Errorf("capped latency not finite: %v", atCap)
	}
	// M/M/1 at u=0.5 with sensitivity 1: 200 * (1 + 0.5/0.5) = 400.
	if got := LatencyAt(cfg, 0.5); math.Abs(got-400) > 1e-9 {
		t.Errorf("latency at 0.5 = %v, want 400", got)
	}
}

func TestThroughputThrottlesAboveSaturation(t *testing.T) {
	s := New(testCfg())
	s.Demand(200e6) // 2x saturation for a 1 ms quantum
	s.EndQuantum(1e-3)
	if got := s.Utilization(); math.Abs(got-2) > 1e-12 {
		t.Errorf("utilization = %v, want 2", got)
	}
	if got := s.ThroughputScale(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("throughput scale = %v, want 0.5", got)
	}
}

func TestZeroQuantumSafe(t *testing.T) {
	s := New(testCfg())
	s.Demand(100)
	s.EndQuantum(0)
	if got := s.Utilization(); got != 0 {
		t.Errorf("zero quantum should leave utilization 0, got %v", got)
	}
	s.Demand(50e6)
	s.EndQuantum(1e-3) // accumulator must have been cleared by zero quantum
	if got := s.Utilization(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("utilization = %v, want 0.5 (stale demand leaked)", got)
	}
}

// Property: latency is always >= base latency and finite.
func TestLatencyBoundsProperty(t *testing.T) {
	cfg := testCfg()
	f := func(u float64) bool {
		l := LatencyAt(cfg, u)
		return l >= cfg.BaseLatencyCycles && !math.IsInf(l, 0) && !math.IsNaN(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
