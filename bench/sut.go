package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
)

// sut is the system under test, hosted in this process behind loopback
// listeners and wired as cmd/pricingd wires it: one api.Server per node
// (a durable node also serves its WAL under /cluster/), and for a routed
// workload a cluster.Router over a ring of stable node names.
type sut struct {
	// url is the front door the generator talks to: the node, or the
	// router.
	url string
	// front is the same front door as a handler, for in-memory calls.
	front    http.Handler
	ring     *cluster.Client
	nodes    []*api.Server
	nodeURLs []string
	servers  []*http.Server
	// dataDir is the durable node's ledger directory ("" when volatile).
	dataDir string
}

func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed at Shutdown
	return hs, "http://" + ln.Addr().String(), nil
}

func nodeConfig(sp spec, cal *core.Calibration, dataDir string) api.Config {
	cfg := api.Config{Calibration: cal, DataDir: dataDir, Fsync: sp.fsync}
	if sp.admission {
		cfg.AdmissionRate = admissionRate
	}
	return cfg
}

func startSUT(sp spec, cal *core.Calibration, dir string) (*sut, error) {
	s := &sut{}
	n := 1
	if sp.routed {
		n = 3
	}
	if sp.fsync != "" {
		s.dataDir = filepath.Join(dir, "ledger")
	}
	var ring []cluster.Node
	for i := 0; i < n; i++ {
		srv, err := api.New(nodeConfig(sp, cal, s.dataDir))
		if err != nil {
			s.stop()
			return nil, err
		}
		s.nodes = append(s.nodes, srv)
		var h http.Handler = srv
		if s.dataDir != "" {
			mux := http.NewServeMux()
			mux.Handle("/cluster/", cluster.NewSource(s.dataDir, cluster.SourceConfig{}))
			mux.Handle("/", srv)
			h = mux
		}
		hs, url, err := serveLoopback(h)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.servers = append(s.servers, hs)
		ring = append(ring, cluster.Node{Name: fmt.Sprintf("n%d", i), URL: url})
		s.nodeURLs = append(s.nodeURLs, url)
		s.url, s.front = url, h
	}
	if sp.routed {
		cc, err := cluster.NewClient(ring, 0)
		if err != nil {
			s.stop()
			return nil, err
		}
		router := cluster.NewRouter(cc, cluster.RouterConfig{})
		hs, url, err := serveLoopback(router)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.servers = append(s.servers, hs)
		s.url, s.front, s.ring = url, router, cc
	}
	return s, nil
}

// stop drains the listeners, then flushes and closes the ledgers. Traffic
// has ended by now, so a listener that does not drain within a second is
// closed: a connection the router's pooled client dialled and never used
// would otherwise hold Shutdown for the whole ReadHeaderTimeout.
func (s *sut) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var first error
	for i := len(s.servers) - 1; i >= 0; i-- {
		err := s.servers[i].Shutdown(ctx)
		if err != nil {
			err = s.servers[i].Close()
		}
		if err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range s.nodes {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.servers, s.nodes = nil, nil
	return first
}
