package main

import (
	"fmt"

	"repro/internal/api"
)

// spec is one workload: the system under test's shape and the traffic sent
// to it. BENCHMARK.json records why each closed loop exists; README.md why
// mixed_open_loop does and why that file leaves it out.
type spec struct {
	name string
	wire api.WireFormat
	// routed puts a cluster.Router in front of three volatile nodes.
	routed bool
	// fsync is the WAL sync policy of a durable ledger; "" keeps the
	// ledger in memory.
	fsync     string
	admission bool
	// records and tenants are per usage stream.
	records, tenants int
	// warmup is the number of streams sent and discarded before the
	// measured window; a fixed count, so the ledger holds the same state
	// at the start of every window.
	warmup int
	// streams is a closed loop's fixed work: usage streams per second of
	// window asked for, over one connection per processor. Frozen a little
	// under what the 2-core reference machine sends in a quiet hour, so a
	// window of --seconds takes about that long there.
	streams float64
	// rate is the open-loop arrival rate in requests/s; 0 means a closed
	// loop.
	rate float64
	// preload is the number of extra tenants created during set-up.
	preload int
}

const (
	// poolStreams is the number of distinct pre-encoded request bodies.
	poolStreams = 256
	// tenantSet and minuteSet are the closed sets tenants and trace
	// minutes are drawn from, so ledger size saturates during warm-up.
	tenantSet = 4096
	minuteSet = 60
	// readEvery: in a closed loop each connection reads one statement and
	// one tenants page after this many streams.
	readEvery = 8
	// segStreams is the length of one segment of a window in answered
	// usage streams, and floorQ the quantile of the segments (and of the
	// latencies) that the floor metrics report: the host's disturbances
	// only ever add time, so the low end of a window is the program's own.
	segStreams = 32
	floorQ     = 0.01
	// sloMs is the latency limit behind within_slo_share.
	sloMs = 20
	// admissionRate is far above any tenant's offered rate: the admission
	// path runs on every record and never throttles.
	admissionRate = 1e6
	// openLoopConnsCap sheds an open-loop arrival instead of sending it
	// when this many requests are already in flight (counted as failed).
	openLoopConnsCap = 1024
)

// Warm-up of the single-node closed loops sends more records than
// ledger.DefaultMaxKeys (1 Mi), so key eviction is already running when
// the window opens.
var workloads = []spec{
	{name: "frames_durable", wire: api.WireFrames, fsync: "interval", records: 512, tenants: 8, warmup: 2304, streams: 400},
	{name: "ndjson_admission", wire: api.WireNDJSON, admission: true, records: 512, tenants: 8, warmup: 2304, streams: 350},
	{name: "cluster_routed", wire: api.WireFrames, routed: true, records: 512, tenants: 8, warmup: 2304, streams: 600},
	{name: "mixed_open_loop", wire: api.WireFrames, fsync: "always", admission: true, records: 32, tenants: 4,
		warmup: 512, rate: 450, preload: 50000},
}

func specByName(name string) (spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled cuts warm-up and preload for the smoke test; scale 1 is the
// benchmark itself.
func (sp spec) scaled(scale float64) spec {
	if scale < 1 {
		sp.warmup = max(poolStreams, int(float64(sp.warmup)*scale))
		sp.preload = int(float64(sp.preload) * scale)
	}
	return sp
}
