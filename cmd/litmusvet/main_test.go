package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/litmusvet"
)

// The analyzer testdata packages carry known findings, so they double as
// fixtures for the driver itself.
const fixture = "../../internal/analysis/testdata/src/closecheck"

func TestStandaloneReportsFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := litmusvet.Main([]string{"-no-tests", fixture}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "error discarded") || !strings.Contains(out, "[closecheck]") {
		t.Errorf("findings not reported:\n%s", out)
	}
}

func TestStandaloneCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := litmusvet.Main([]string{"-no-tests", "../../internal/stats"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// Tests on is the default and the documented form. internal/ledger has an
// external test beside a dependent (ledgertest) go list recompiles against
// the test variant, so it is where variant names would break type-checking.
func TestStandaloneWithTests(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := litmusvet.Main([]string{"../../internal/ledger"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := litmusvet.Main([]string{"-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	// cmd/go parses "<name> version <descriptor...>"; the descriptor must
	// fingerprint the binary for vet's result cache.
	fields := strings.Fields(stdout.String())
	if len(fields) < 3 || fields[1] != "version" {
		t.Errorf("-V=full output %q does not match the vet protocol", stdout.String())
	}
}

func TestFlagsFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := litmusvet.Main([]string{"-flags"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("-flags = %q, want []", stdout.String())
	}
}

// TestGoVetIntegration builds the tool and runs it the way CI does:
// go vet -vettool. The fixture package must fail with its known findings.
func TestGoVetIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	tool := filepath.Join(t.TempDir(), "litmusvet")
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tool: %v\n%s", err, out)
	}
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./internal/analysis/testdata/src/closecheck")
	vet.Dir = repoRoot
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on a fixture with known findings:\n%s", out)
	}
	if !strings.Contains(string(out), "error discarded") {
		t.Errorf("go vet output missing the expected diagnostic:\n%s", out)
	}

	clean := exec.Command("go", "vet", "-vettool="+tool, "./internal/stats")
	clean.Dir = repoRoot
	if out, err := clean.CombinedOutput(); err != nil {
		t.Errorf("go vet failed on a clean package: %v\n%s", err, out)
	}
}
