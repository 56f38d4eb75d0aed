package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/exp"
)

// t1 is the inventory table: no calibration, milliseconds.
func t1(t *testing.T) exp.Experiment {
	t.Helper()
	e, ok := exp.ByID("T1")
	if !ok {
		t.Fatal("T1 not registered")
	}
	return e
}

func TestRunOneText(t *testing.T) {
	var buf bytes.Buffer
	cfg := exp.Config{Seed: 1, Scale: 0.1}
	if err := runOne(&buf, t1(t), cfg, "text"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T1", "paper:", "pager-py",
		"metric functions                    27.0000   paper 27.0000   delta +0.0000  in-band yes [27, 27]"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q", want)
		}
	}
}

func TestRunOneCSV(t *testing.T) {
	var buf bytes.Buffer
	cfg := exp.Config{Seed: 1, Scale: 0.1}
	if err := runOne(&buf, t1(t), cfg, "csv"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "function,abbr,suite") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "pager-py") {
		t.Error("CSV rows missing")
	}
}

func TestRunOneJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := exp.Config{Seed: 1, Scale: 0.1}
	if err := runOne(&buf, t1(t), cfg, "json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"columns"`) {
		t.Error("JSON output malformed")
	}
}

func TestRunOneErrors(t *testing.T) {
	var buf bytes.Buffer
	cfg := exp.Config{Seed: 1, Scale: 0.1}
	if exp.CheckFormat("yaml") == nil {
		t.Error("unknown format passes the up-front check")
	}
	if err := runOne(&buf, t1(t), cfg, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}
