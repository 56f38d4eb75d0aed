// Package cache models the processor cache hierarchy.
//
// The shared last-level cache (L3) is simulated structurally: a
// set-associative array with LRU replacement and per-owner occupancy and
// eviction accounting. Contention between co-running functions is therefore
// emergent — a memory-hungry neighbour really does evict a victim's lines,
// which is the physical effect Litmus pricing must detect and price.
//
// To keep the simulation fast the cache operates on coarse blocks (default
// 16KiB) rather than 64-byte lines, and the engine drives it with sampled
// accesses. Hit/miss *fractions* are preserved under this scaling; absolute
// miss counts are proportionally smaller, which is irrelevant because the
// paper normalises every miss count it reports (Figs. 1, 10).
//
// Private caches (L1/L2) are modelled analytically per hardware context in
// the engine: their behaviour depends only on the owning function (plus
// context-switch pollution), never on co-runners, so a structural simulation
// would add cost without adding interaction.
package cache

import (
	"fmt"
)

// Config describes a set-associative cache.
type Config struct {
	// Name labels the cache in stats output (e.g. "L3").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int64
	// BlockBytes is the allocation granularity. The simulator uses coarse
	// blocks (16KiB) for the shared cache; see the package comment.
	BlockBytes int64
	// Ways is the associativity.
	Ways int
	// HitLatency is the access latency in cycles on a hit.
	HitLatency float64
	// ScatterIndex hashes block addresses into sets instead of using the
	// low-order bits directly. Real LLCs hash physical addresses across
	// slices; without it, distinct sandboxes' buffers (which all start at
	// offset zero of their own address spaces) would collide pathologically
	// in the low sets.
	ScatterIndex bool
}

// Blocks returns the total number of blocks the cache holds.
func (c Config) Blocks() int { return int(c.SizeBytes / c.BlockBytes) }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Blocks() / c.Ways }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive size or block", c.Name)
	}
	if c.SizeBytes%c.BlockBytes != 0 {
		return fmt.Errorf("cache %q: size %d not a multiple of block %d", c.Name, c.SizeBytes, c.BlockBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive ways", c.Name)
	}
	if c.Blocks()%c.Ways != 0 {
		return fmt.Errorf("cache %q: %d blocks not divisible by %d ways", c.Name, c.Blocks(), c.Ways)
	}
	if c.Sets() == 0 {
		return fmt.Errorf("cache %q: zero sets", c.Name)
	}
	return nil
}

type way struct {
	tag     uint64
	owner   int
	lastUse uint64
	valid   bool
}

// OwnerStats aggregates one owner's interaction with a shared cache.
type OwnerStats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evicted   uint64 // this owner's blocks evicted by anyone
	Inflicted uint64 // evictions this owner caused on other owners
	Occupancy int    // blocks currently resident
}

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (s OwnerStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative, LRU-replaced shared cache with per-owner
// accounting. It is not safe for concurrent use; the engine drives it from a
// single goroutine per simulated machine.
type Cache struct {
	cfg    Config
	sets   [][]way
	nsets  uint64
	tick   uint64
	owners map[int]*OwnerStats

	totalAccesses uint64
	totalMisses   uint64
}

// New builds a cache from cfg. It panics on an invalid config: cache shapes
// are static machine descriptions fixed at simulator construction, so a bad
// one is a programming error, not a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]way, cfg.Sets())
	backing := make([]way, cfg.Sets()*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{
		cfg:    cfg,
		sets:   sets,
		nsets:  uint64(cfg.Sets()),
		owners: make(map[int]*OwnerStats),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) ownerStats(owner int) *OwnerStats {
	s := c.owners[owner]
	if s == nil {
		s = &OwnerStats{}
		c.owners[owner] = s
	}
	return s
}

// Access looks up block (a block-granular address) on behalf of owner,
// inserting it on a miss and evicting the LRU way if the set is full.
// It reports whether the access hit.
func (c *Cache) Access(owner int, block uint64) bool {
	c.tick++
	c.totalAccesses++
	os := c.ownerStats(owner)
	os.Accesses++

	idx := block
	if c.cfg.ScatterIndex {
		idx = mix64(block)
	}
	set := c.sets[idx%c.nsets]
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == block {
			w.lastUse = c.tick
			if w.owner != owner {
				// Shared block adoption: last toucher owns it. Serverless
				// sandboxes do not share data blocks, but runtime images do;
				// transferring ownership keeps occupancy sums exact.
				c.ownerStats(w.owner).Occupancy--
				os.Occupancy++
				w.owner = owner
			}
			os.Hits++
			return true
		}
	}

	// Victim selection: first invalid way, otherwise LRU.
	victim := &set[0]
	for i := range set {
		w := &set[i]
		if !w.valid {
			victim = w
			break
		}
		if w.lastUse < victim.lastUse {
			victim = w
		}
	}

	// Miss path.
	c.totalMisses++
	os.Misses++
	if victim.valid {
		prev := c.ownerStats(victim.owner)
		prev.Evicted++
		prev.Occupancy--
		if victim.owner != owner {
			os.Inflicted++
		}
	}
	victim.tag = block
	victim.owner = owner
	victim.lastUse = c.tick
	victim.valid = true
	os.Occupancy++
	return false
}

// Owner returns a copy of the accumulated stats for owner.
func (c *Cache) Owner(owner int) OwnerStats {
	if s := c.owners[owner]; s != nil {
		return *s
	}
	return OwnerStats{}
}

// TotalAccesses returns the machine-wide access count.
func (c *Cache) TotalAccesses() uint64 { return c.totalAccesses }

// TotalMisses returns the machine-wide miss count — the quantity the Litmus
// probe reads as its supplementary congestion metric (paper §6, Fig. 10).
func (c *Cache) TotalMisses() uint64 { return c.totalMisses }

// Utilization returns the fraction of blocks currently valid.
func (c *Cache) Utilization() float64 {
	valid := 0
	for _, set := range c.sets {
		for _, w := range set {
			if w.valid {
				valid++
			}
		}
	}
	return float64(valid) / float64(c.cfg.Blocks())
}

// Release invalidates all blocks held by owner and forgets its stats. The
// platform calls this when a sandbox terminates; its cache footprint would
// otherwise linger as phantom occupancy.
func (c *Cache) Release(owner int) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].owner == owner {
				set[i].valid = false
			}
		}
	}
	delete(c.owners, owner)
}

// mix64 is the splitmix64 finalizer, a cheap full-avalanche hash used to
// scatter block addresses across sets.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
