package platform

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

func churnWith(t *testing.T, p Placement) (*Platform, *Churn) {
	t.Helper()
	cfg := DefaultConfig(61)
	cfg.BodyScale = 0.05
	cfg.StartupScale = 0.2
	plat := New(cfg)
	pool := []*workload.Spec{workload.ByAbbr()["auth-go"]}
	c := plat.StartChurn(pool, 8, Threads(0, 4)).SetPlacement(p)
	return plat, c
}

// load returns the background population per churn thread, empty threads
// included.
func load(c *Churn) map[int]int {
	counts := make(map[int]int, len(c.threads))
	for _, th := range c.threads {
		counts[th] = 0
	}
	for _, th := range c.active {
		counts[th]++
	}
	return counts
}

func runCompletions(t *testing.T, p *Platform, want int) int {
	t.Helper()
	done := 0
	for i := 0; i < 20000 && done < want; i++ {
		for _, ev := range p.Step() {
			if ev.Kind == engine.EventDone {
				done++
			}
		}
	}
	return done
}

func TestPlacementString(t *testing.T) {
	if PlaceSticky.String() != "sticky" || PlaceRandom.String() != "random" {
		t.Error("placement names wrong")
	}
	if Placement(9).String() != "placement(9)" {
		t.Error("unknown placement name wrong")
	}
}

func TestStickyKeepsPerThreadBalance(t *testing.T) {
	p, c := churnWith(t, PlaceSticky)
	if got := runCompletions(t, p, 30); got < 30 {
		t.Fatalf("only %d completions", got)
	}
	for th, n := range load(c) {
		if n != 2 {
			t.Errorf("thread %d load = %d, want exactly 2 under sticky", th, n)
		}
	}
}

func TestRandomMigratesAcrossThreads(t *testing.T) {
	p, c := churnWith(t, PlaceRandom)
	if c.placement != PlaceRandom {
		t.Fatal("placement not set")
	}
	if got := runCompletions(t, p, 60); got < 60 {
		t.Fatalf("only %d completions", got)
	}
	// Population conserved even while migrating.
	total := 0
	saw := map[int]bool{}
	for th, n := range load(c) {
		total += n
		if n > 0 {
			saw[th] = true
		}
	}
	if total != 8 {
		t.Errorf("population = %d, want 8", total)
	}
	if len(saw) < 2 {
		t.Errorf("random placement collapsed onto %d threads", len(saw))
	}
}
