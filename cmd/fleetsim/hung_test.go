package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api/apitest"
)

// TestRemoteHungNodeExits runs a built fleetsim against -remote nodes that
// accept the connection and never answer — one node, where -remote talks to
// it through a bare api.Client, and two, through the ring-aware client. Its
// start-up health probe must give up on its own and the process exit
// non-zero within 2 s.
func TestRemoteHungNodeExits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fleetsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fleetsim: %v\n%s", err, out)
	}
	tables, err := apitest.Calibration().Encode()
	if err != nil {
		t.Fatal(err)
	}
	tablesPath := filepath.Join(dir, "tables.json")
	if err := os.WriteFile(tablesPath, tables, 0o644); err != nil {
		t.Fatal(err)
	}
	// A black hole accepts connections and holds them, unread, until the
	// test ends.
	blackHole := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			var held []net.Conn
			for {
				conn, err := ln.Accept()
				if err != nil {
					for _, c := range held {
						c.Close()
					}
					close(done)
					return
				}
				held = append(held, conn)
			}
		}()
		t.Cleanup(func() { ln.Close(); <-done })
		return "http://" + ln.Addr().String()
	}
	for name, remote := range map[string]string{
		"one node":  blackHole(),
		"two nodes": "n0=" + blackHole() + ",n1=" + blackHole(),
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, "-q", "-machines", "2", "-tenants", "2", "-minutes", "2",
				"-tables", tablesPath, "-remote", remote)
			start := time.Now()
			out, err := cmd.CombinedOutput()
			took := time.Since(start)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || ctx.Err() != nil {
				t.Fatalf("fleetsim -remote %s: %v after %v, want a non-zero exit\n%s", remote, err, took, out)
			}
			if took > 2*time.Second {
				t.Errorf("fleetsim -remote %s exited after %v, want within 2s\n%s", remote, took, out)
			}
		})
	}
}
