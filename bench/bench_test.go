package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"testing"
)

func smokeOptions(t *testing.T, workload string) options {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: 7, seconds: 0.5, scale: 0.02, tmp: t.TempDir(), out: t.TempDir(), bf: bf}
}

// TestSmoke runs every workload of the harness with the work cut down,
// plain and traced: each must pass its own correctness gate and print
// exactly the metrics BENCHMARK.json lists, under names the contract
// allows.
func TestSmoke(t *testing.T) {
	bf := smokeOptions(t, "").bf
	var e2e, layers []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, name := range append(append([]string{}, e2e...), layers...) {
		if !valid.MatchString(name) {
			t.Errorf("metric name %q is outside the contract", name)
		}
	}
	for _, wl := range bf.Workloads {
		if _, err := specByName(wl.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	// Every workload of the harness, also the one BENCHMARK.json leaves out.
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", sp.name, traced), func(t *testing.T) {
				o := smokeOptions(t, sp.name)
				o.trace = traced
				res, err := runWorkload(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				want := e2e
				if traced {
					want = layers
				}
				if got := slices.Sorted(maps.Keys(res.Metrics)); !slices.Equal(got, want) {
					t.Errorf("prints\n%v\nBENCHMARK.json lists\n%v", got, want)
				}
			})
		}
	}
}

// TestReplayBillsInTheCollectorsRunLength: the stage replay bills in runs of
// replayBatch because the stream collector of internal/api flushes at that
// size; the constant there is unexported, so its source is read.
func TestReplayBillsInTheCollectorsRunLength(t *testing.T) {
	src, err := os.ReadFile("../internal/api/v3.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^const accrueBatchSize = (\d+)$`).FindSubmatch(src)
	if m == nil || string(m[1]) != strconv.Itoa(replayBatch) {
		t.Errorf("internal/api flushes its collector at %q records, the replay bills in runs of %d", m, replayBatch)
	}
}

// TestInputsFollowSeed: equal seeds give byte-identical request bodies,
// different seeds different ones.
func TestInputsFollowSeed(t *testing.T) {
	for _, name := range []string{"ndjson_admission", "mixed_open_loop"} { // both wires, and the quotes
		sp, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := newInputs(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newInputs(sp, 3)
		c, _ := newInputs(sp, 4)
		same := 0
		for i := range a.streams {
			if !bytes.Equal(a.streams[i].body, b.streams[i].body) {
				t.Fatalf("%s: stream %d differs between two makes from seed 3", sp.name, i)
			}
			if bytes.Equal(a.streams[i].body, c.streams[i].body) {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%s: %d of %d streams equal between seeds 3 and 4", sp.name, same, len(a.streams))
		}
		for i := range a.quotes {
			if !bytes.Equal(a.quotes[i].body, b.quotes[i].body) {
				t.Fatalf("%s: quote %d differs between two makes from seed 3", sp.name, i)
			}
		}
	}
}

// TestGateTrips leaves one acknowledged stream out of the harness's books;
// the tenants listing and a statement then disagree with them and the run
// must come back incorrect.
func TestGateTrips(t *testing.T) {
	o := smokeOptions(t, "frames_durable")
	o.dropOne = true
	res, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("a dropped stream went unnoticed: correct %v, %d failed", res.Correct, res.Failed)
	}
}
