package exp

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// sameText fails the test at the first line where got departs from want.
func sameText(t *testing.T, what, want, got string) {
	t.Helper()
	if got == want {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of text>"
	}
	t.Fatalf("%s, line %d:\n want %q\n  got %q", what, i+1, line(w), line(g))
}

// readmeBlock returns what README.md holds between the two marker comments
// of the given name.
func readmeBlock(t *testing.T, name string) string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	begin, end := fmt.Sprintf("<!-- begin: %s -->\n", name), fmt.Sprintf("<!-- end: %s -->\n", name)
	_, rest, ok := strings.Cut(string(readme), begin)
	block, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("README.md has no %q…%q block", strings.TrimSpace(begin), strings.TrimSpace(end))
	}
	return block
}

// TestREADMERegistryTable: README's table of artifacts and paper claims is
// `litmusbench -list`, byte for byte — regenerate it, never edit it.
func TestREADMERegistryTable(t *testing.T) {
	var list bytes.Buffer
	List(&list)
	sameText(t, "README.md registry table vs `litmusbench -list`", list.String(), readmeBlock(t, "litmusbench -list"))
}

// TestGolden is "the reproduction did not move": every table cell of the
// whole registry at tiny() against the committed CSV, and README's
// reproduced-vs-paper lines against the text report. After an intended
// simulator change, regenerate and review the diff:
//
//	go run ./cmd/litmusbench -all -seed 7 -scale 0.12 -format csv -o internal/exp/testdata/all-seed7-scale0.12.csv
func TestGolden(t *testing.T) {
	var csv, text bytes.Buffer
	for _, e := range All() {
		res := runExp(t, e.ID)
		if err := res.Write(&csv, "csv"); err != nil {
			t.Fatal(err)
		}
		if err := res.Write(&text, "text"); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile("testdata/all-seed7-scale0.12.csv")
	if err != nil {
		t.Fatal(err)
	}
	sameText(t, "-all -seed 7 -scale 0.12 -format csv vs testdata/all-seed7-scale0.12.csv", string(golden), csv.String())

	// litmusbench -all -scale 0.12 | grep -E '^== |  paper '
	claims := "```text\n"
	for _, line := range strings.SplitAfter(text.String(), "\n") {
		if strings.HasPrefix(line, "== ") || strings.Contains(line, "  paper ") {
			claims += line
		}
	}
	sameText(t, "README.md reproduced-vs-paper block vs the text report", claims+"```\n", readmeBlock(t, "reproduced vs paper"))
}
