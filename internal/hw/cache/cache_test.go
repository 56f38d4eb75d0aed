package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func cfg4x2() Config {
	// 8 blocks total: 4 sets x 2 ways, 1KiB blocks.
	return Config{Name: "t", SizeBytes: 8 * 1024, BlockBytes: 1024, Ways: 2, HitLatency: 10}
}

func TestConfigGeometry(t *testing.T) {
	c := cfg4x2()
	if c.Blocks() != 8 {
		t.Errorf("Blocks = %d, want 8", c.Blocks())
	}
	if c.Sets() != 4 {
		t.Errorf("Sets = %d, want 4", c.Sets())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, BlockBytes: 64, Ways: 2},
		{Name: "b", SizeBytes: 1024, BlockBytes: 0, Ways: 2},
		{Name: "c", SizeBytes: 1000, BlockBytes: 64, Ways: 2},   // size not multiple of block
		{Name: "d", SizeBytes: 1024, BlockBytes: 64, Ways: 0},   // no ways
		{Name: "e", SizeBytes: 1024, BlockBytes: 64, Ways: 5},   // 16 blocks % 5 != 0
		{Name: "f", SizeBytes: 1024, BlockBytes: 1024, Ways: 2}, // 1 block, 2 ways
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%q) should fail", c.Name)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 1, BlockBytes: 2, Ways: 1})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(cfg4x2())
	if c.Access(1, 100) {
		t.Error("cold access should miss")
	}
	if !c.Access(1, 100) {
		t.Error("second access should hit")
	}
	s := c.Owner(1)
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("owner stats = %+v", s)
	}
	if s.Occupancy != 1 {
		t.Errorf("occupancy = %d, want 1", s.Occupancy)
	}
	if got := s.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(cfg4x2())
	// Blocks 0, 4, 8 all map to set 0 (4 sets); 2 ways.
	c.Access(1, 0)
	c.Access(1, 4)
	c.Access(1, 0) // touch 0 so 4 becomes LRU
	if c.Access(1, 8) {
		t.Error("conflict access should miss")
	}
	if !c.Access(1, 0) {
		t.Error("block 0 (MRU) should still be resident")
	}
	if c.Access(1, 4) {
		t.Error("block 4 (LRU) should have been evicted")
	}
}

func TestInterOwnerEvictionAccounting(t *testing.T) {
	c := New(cfg4x2())
	// Owner 1 fills set 0 (blocks 0 and 4).
	c.Access(1, 0)
	c.Access(1, 4)
	// Owner 2 storms the same set with two new blocks.
	c.Access(2, 8)
	c.Access(2, 12)
	s1, s2 := c.Owner(1), c.Owner(2)
	if s1.Evicted != 2 {
		t.Errorf("owner 1 Evicted = %d, want 2", s1.Evicted)
	}
	if s2.Inflicted != 2 {
		t.Errorf("owner 2 Inflicted = %d, want 2", s2.Inflicted)
	}
	if s1.Occupancy != 0 || s2.Occupancy != 2 {
		t.Errorf("occupancy = %d / %d, want 0 / 2", s1.Occupancy, s2.Occupancy)
	}
}

func TestSelfEvictionNotInflicted(t *testing.T) {
	c := New(cfg4x2())
	c.Access(1, 0)
	c.Access(1, 4)
	c.Access(1, 8) // evicts own block
	s := c.Owner(1)
	if s.Inflicted != 0 {
		t.Errorf("self-eviction counted as inflicted: %d", s.Inflicted)
	}
	if s.Evicted != 1 {
		t.Errorf("Evicted = %d, want 1", s.Evicted)
	}
}

func TestOwnershipAdoptionOnSharedHit(t *testing.T) {
	c := New(cfg4x2())
	c.Access(1, 0)
	if !c.Access(2, 0) {
		t.Error("shared block should hit for second owner")
	}
	if got := c.Owner(1).Occupancy; got != 0 {
		t.Errorf("owner 1 occupancy after adoption = %d, want 0", got)
	}
	if got := c.Owner(2).Occupancy; got != 1 {
		t.Errorf("owner 2 occupancy after adoption = %d, want 1", got)
	}
}

func TestRelease(t *testing.T) {
	c := New(cfg4x2())
	c.Access(1, 0)
	c.Access(1, 1)
	c.Access(2, 2)
	c.Release(1)
	if c.Access(1, 0) {
		t.Error("released block should miss")
	}
	if !c.Access(2, 2) {
		t.Error("other owner's block must survive Release")
	}
	// Released owner's stats are forgotten (fresh accounting on return).
	if got := c.Owner(1).Accesses; got != 1 {
		t.Errorf("owner 1 accesses after release = %d, want 1 (the new access)", got)
	}
}

func TestUtilization(t *testing.T) {
	c := New(cfg4x2())
	if got := c.Utilization(); got != 0 {
		t.Errorf("empty utilization = %v", got)
	}
	c.Access(1, 0)
	c.Access(1, 1)
	if got := c.Utilization(); got != 0.25 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
}

func TestWorkingSetSmallerThanCacheConverges(t *testing.T) {
	// A working set that fits must converge to a 100% hit rate after warmup.
	c := New(Config{Name: "L3", SizeBytes: 64 * 1024, BlockBytes: 1024, Ways: 8, HitLatency: 40})
	rng := rand.New(rand.NewSource(42))
	const ws = 32 // blocks, cache holds 64
	for i := 0; i < 10*ws; i++ {
		c.Access(1, uint64(rng.Intn(ws)))
	}
	warm := c.Owner(1).Misses
	for i := 0; i < 1000; i++ {
		c.Access(1, uint64(rng.Intn(ws)))
	}
	if missed := c.Owner(1).Misses - warm; missed != 0 {
		t.Errorf("warm fitting working set missed %d of 1000 accesses, want 0", missed)
	}
}

func TestStreamingWorkloadAlwaysMisses(t *testing.T) {
	c := New(Config{Name: "L3", SizeBytes: 64 * 1024, BlockBytes: 1024, Ways: 8, HitLatency: 40})
	for i := uint64(0); i < 4096; i++ {
		if c.Access(1, i) {
			t.Fatalf("streaming access %d hit; never-reused blocks cannot hit", i)
		}
	}
}

// Property: occupancy bookkeeping is exact — the sum of all owners'
// occupancy equals the number of valid blocks, and never exceeds capacity.
func TestOccupancyInvariant(t *testing.T) {
	f := func(seed int64) bool {
		c := New(Config{Name: "p", SizeBytes: 32 * 1024, BlockBytes: 1024, Ways: 4, HitLatency: 1})
		rng := rand.New(rand.NewSource(seed))
		owners := []int{1, 2, 3}
		for i := 0; i < 500; i++ {
			o := owners[rng.Intn(len(owners))]
			c.Access(o, uint64(rng.Intn(100)))
			if rng.Intn(50) == 0 {
				c.Release(owners[rng.Intn(len(owners))])
			}
		}
		sum := 0
		for _, o := range owners {
			occ := c.Owner(o).Occupancy
			if occ < 0 {
				return false
			}
			sum += occ
		}
		valid := int(c.Utilization()*float64(c.Config().Blocks()) + 0.5)
		return sum == valid && sum <= c.Config().Blocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == accesses for every owner and machine-wide.
func TestCounterConsistency(t *testing.T) {
	f := func(seed int64) bool {
		c := New(cfg4x2())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			c.Access(rng.Intn(4), uint64(rng.Intn(32)))
		}
		var hits, misses, accesses uint64
		for o := 0; o < 4; o++ {
			s := c.Owner(o)
			if s.Hits+s.Misses != s.Accesses {
				return false
			}
			hits += s.Hits
			misses += s.Misses
			accesses += s.Accesses
		}
		return accesses == c.TotalAccesses() && misses == c.TotalMisses() && accesses == 300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New(Config{Name: "L3", SizeBytes: 22 * 1024 * 1024, BlockBytes: 16 * 1024, Ways: 11, HitLatency: 40})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(4096))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(i&7, addrs[i&4095])
	}
}
