// Command bench is the repository's one benchmark of the billing path: it
// hosts the pricing service in this process behind loopback listeners,
// drives one of four workloads at it, checks the service's books against
// what core prices, and prints every metric by name and unit.
//
//	bash bench/run.sh --workload frames_durable --seed 1 --seconds 22 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --selfcheck
//
// See README.md for the metric definitions and how the layers add up.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	var o options
	var traceFlag int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds of fixed work in the measured window (0: run_seconds of BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the per-layer pass and prints the per-layer metrics")
	flag.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "directory for ledger data dirs")
	flag.StringVar(&o.out, "out", "bench/out", "directory for span files")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload of BENCHMARK.json in two interleaved sets and compare medians and spreads with the bounds")
	flag.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "path of BENCHMARK.json: run length, metric units, bounds")
	flag.Parse()
	o.trace, o.scale = traceFlag != 0, 1
	if flag.NArg() > 0 || o.seconds < 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v, or -seconds %v negative\n", flag.Args(), o.seconds)
		os.Exit(2)
	}

	var err error
	if o.bf, err = readBenchmarkFile(o.benchmark); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if o.seconds == 0 {
		o.seconds = float64(o.bf.RunSeconds)
	}
	switch {
	case selfcheck:
		err = selfCheck(o)
	case o.workload == "all":
		// One process per workload: peak_rss_mb is a process-wide
		// high-water mark, and heap left by one workload would sit under
		// the next.
		for _, sp := range workloads {
			child := o
			child.workload = sp.name
			if _, err = runChild(child, true); err != nil {
				break
			}
		}
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints the environment
// header, then the result as the last line.
func runOne(o options) error {
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	sp, _ := specByName(o.workload)
	env, err := json.Marshal(map[string]any{"env": environment(o, sp)})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", env, line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d requests and checks failed", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

// runChild runs one workload in a fresh process of this binary and parses
// its result line; echo passes the child's output through. A child that
// failed a request or a check exits non-zero, which is the error here.
func runChild(o options, echo bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-tmp", o.tmp, "-out", o.out, "-benchmark", o.benchmark)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", o.workload, o.seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", o.workload, o.seed, err)
	}
	return &res, nil
}

// environment is the header printed with every result: what the numbers
// were measured on and with.
func environment(o options, sp spec) map[string]any {
	conns, work := runtime.GOMAXPROCS(0), int64(o.seconds*sp.streams)
	loop := "closed"
	if sp.rate > 0 {
		conns, work = 0, int64(o.seconds*sp.rate)
		loop = fmt.Sprintf("open at %g req/s", sp.rate)
	}
	fsync := sp.fsync
	if fsync == "" {
		fsync = "volatile"
	}
	return map[string]any{
		"workload":           sp.name,
		"seed":               o.seed,
		"seconds":            o.seconds,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              runtime.NumCPU(),
		"go":                 runtime.Version(),
		"cpu":                cpuModel(),
		"commit":             gitCommit(),
		"loop":               loop,
		"connections":        conns,
		"fsync":              fsync,
		"window_requests":    work, // usage streams of a closed loop, arrivals of the open loop
		"warmup_streams":     sp.warmup,
		"pool_streams":       poolStreams,
		"records_per_stream": sp.records,
		"preload_tenants":    sp.preload,
		"tmp_fs":             fsType(o.tmp),
	}
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git by hand (no child
// process); the driver's checkout is not a repository and reads unknown.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if hash, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	return "unknown"
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("%#x", st.Type)
}
