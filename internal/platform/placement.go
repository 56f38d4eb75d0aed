package platform

import "fmt"

// Placement selects the hardware thread a replacement background function
// lands on. The paper's environments differ here: the one-function-per-core
// setup pins each function (Sticky), while the temporal-sharing setup notes
// that "a switched-out function has a low chance of being rescheduled to the
// same core" (§7.2) — functions migrate freely over the shared cores
// (Random), which is why Method 2 builds its tables with unpinned
// populations.
type Placement int

// Placement policies.
const (
	// PlaceSticky respawns a replacement on the thread its predecessor
	// occupied (default; keeps per-thread populations exactly balanced).
	PlaceSticky Placement = iota
	// PlaceRandom respawns on a uniformly random thread of the churn set.
	PlaceRandom
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case PlaceSticky:
		return "sticky"
	case PlaceRandom:
		return "random"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// SetPlacement selects the churn's replacement policy (default PlaceSticky).
func (c *Churn) SetPlacement(p Placement) *Churn {
	c.placement = p
	return c
}

// replacementThread picks the thread for a replacement according to the
// policy. prev is the finished function's thread.
func (c *Churn) replacementThread(prev int) int {
	if c.placement == PlaceRandom {
		return c.threads[c.p.rng.Intn(len(c.threads))]
	}
	return prev
}
