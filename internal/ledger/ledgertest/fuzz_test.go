package ledgertest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ledger"
)

// program decodes fuzz bytes into a ledger configuration and an entry
// sequence cut into batches. The first bytes pick 1–8 shards, a key budget
// from 1 to 23 (or the default), a tenant cap from 1 to 8 (or the default)
// and the window width; then every four bytes are one entry over 12 tenants
// and 10 keys per tenant — cap pressure and retried keys — about one in
// eight of them unbillable, and a batch cut after about one in three.
func program(data []byte) (ledger.Config, [][]ledger.Entry) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cfg := ledger.Config{
		Shards:        1 + int(next()%8),
		MaxKeys:       int(next() % 24),
		MaxTenants:    int(next() % 9),
		WindowMinutes: int(next() % 4),
	}
	var batches [][]ledger.Entry
	var cur []ledger.Entry
	for n := 0; len(data) > 0 && n < 512; n++ {
		op, t, k, amt := next(), next(), next(), next()
		e := ledger.Entry{
			Tenant:     fmt.Sprintf("t%d", t%12),
			Pricer:     []string{"litmus", "commercial", ""}[(op>>6)%3],
			Minute:     int(amt>>3) + int(k>>5),
			Commercial: float64(amt) / 3,
			Price:      float64(t) / 7,
		}
		if k%4 != 0 {
			e.Key = fmt.Sprintf("k%d", k%10)
		}
		if op&0x1c == 0 { // one in eight: break one rule
			switch op >> 5 {
			case 0:
				e.Tenant = ""
			case 1:
				e.Tenant += "\x00"
			case 2:
				e.Price = math.NaN()
			case 3:
				e.Commercial = math.Inf(1)
			case 4:
				e.Minute = []int{-1, math.MaxInt}[k&1] // past MaxMinute where int has 64 bits
			case 5:
				e.Key = "\xff"
			case 6:
				e.Price = -1
			default:
				e.Pricer = "\xc3"
			}
		}
		cur = append(cur, e)
		if op%3 == 0 {
			batches, cur = append(batches, cur), nil
		}
	}
	return cfg, append(batches, cur)
}

// FuzzAccrueBatchMatchesModel bills random entry programs through
// AccrueBatch and through the model: every result, every SeenBatch answer
// after each batch and, at the end, every observable must agree.
func FuzzAccrueBatchMatchesModel(f *testing.F) {
	r := rand.New(rand.NewSource(41))
	for range 12 {
		seed := make([]byte, 4+4*(1+r.Intn(300)))
		r.Read(seed)
		f.Add(seed)
	}
	// One shard, a budget of one key, a cap of one tenant, one batch.
	f.Add([]byte{0, 1, 1, 1, 1, 0, 1, 8, 1, 1, 1, 8, 1, 0, 1, 8, 1, 1, 2, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, batches := program(data)
		l, err := ledger.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := newModel(cfg)
		for b, batch := range batches {
			got := make([]ledger.AccrualResult, len(batch))
			l.AccrueBatch(batch, got)
			if err := diffResults(got, m.drive(batch)); err != nil {
				t.Fatalf("%+v batch %d: %v", cfg, b, err)
			}
			seen := make([]bool, len(batch))
			l.SeenBatch(batch, seen)
			for i, e := range batch {
				// What SeenBatch answers for an unbillable entry is not
				// specified: a tenant holding a NUL can spell another's key.
				if validate(e) == nil && seen[i] != m.seen(e) {
					t.Fatalf("%+v batch %d: SeenBatch(%+v) = %v, model = %v", cfg, b, e, seen[i], m.seen(e))
				}
			}
		}
		if err := Diff(m, l); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}
