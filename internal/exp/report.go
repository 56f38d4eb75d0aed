package exp

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// CheckFormat reports whether Result.Write renders format, so a caller can
// refuse a bad one before it has run anything.
func CheckFormat(format string) error {
	switch format {
	case "text", "csv", "json":
		return nil
	}
	return fmt.Errorf("unknown format %q (want text, csv or json)", format)
}

// Write renders the result: "text" is the full report — the tables, the
// notes, every metric and, beside each metric the paper states a number for,
// that number, the delta and whether the reproduction is inside the claim's
// band; "csv" and "json" carry the tables' rows only.
func (r *Result) Write(w io.Writer, format string) error {
	switch format {
	case "text":
		fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
		if r.Paper != "" {
			fmt.Fprintf(w, "paper: %s\n", r.Paper)
		}
		fmt.Fprintln(w)
		for _, tab := range r.Tables {
			fmt.Fprintln(w, tab.String())
		}
		for _, n := range r.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
		for _, k := range r.MetricNames() {
			v := r.Metrics[k]
			i := slices.IndexFunc(r.Claims, func(c Claim) bool { return c.Metric == k })
			if i < 0 {
				fmt.Fprintf(w, "metric %-28s %.4f\n", k, v)
				continue
			}
			c, inBand := r.Claims[i], "yes"
			if !c.InBand(v) {
				inBand = "NO"
			}
			fmt.Fprintf(w, "metric %-28s %-8.4f  paper %-8.4f  delta %+.4f  in-band %s %s\n",
				k, v, c.Paper, v-c.Paper, inBand, c.band())
		}
		fmt.Fprintf(w, "(completed in %v)\n\n", r.Elapsed.Round(time.Millisecond))
	case "csv":
		for _, tab := range r.Tables {
			fmt.Fprintf(w, "# %s: %s\n", r.ID, tab.Title)
			fmt.Fprint(w, tab.CSV())
		}
	case "json":
		for _, tab := range r.Tables {
			j, err := tab.JSON()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, j)
		}
	default:
		return CheckFormat(format)
	}
	return nil
}

// band renders the claim's band, "[0.02, 1]".
func (c Claim) band() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return "[" + g(c.Lo) + ", " + g(c.Hi) + "]"
}

// List writes the registry as a Markdown table: one row per artifact with
// the shape the paper reports and, per claim, the metric, the paper's value
// in the metric's unit and the band. It is litmusbench -list, and README's
// registry table is its output (TestREADMERegistryTable).
func List(w io.Writer) {
	fmt.Fprintln(w, "| ID | artifact | the paper reports | the paper's numbers: `metric` value [band] |")
	fmt.Fprintln(w, "| --- | --- | --- | --- |")
	for _, e := range All() {
		claims := make([]string, len(e.Claims))
		for i, c := range e.Claims {
			claims[i] = fmt.Sprintf("`%s` %v %s", c.Metric, c.Paper, c.band())
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", e.ID, e.Title, e.Paper, strings.Join(claims, ", "))
	}
}
