package ledger_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/ledger/ledgertest"
)

// encodeJSON is the bytes json.NewEncoder(w).Encode(v) writes — what the
// statement route wrote before it appended its body by hand.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// refusable reports whether st holds something only encoding/json may
// write: a string it does not write as it stands, a non-finite number, or
// bills out of pricer order. It asks encoding/json itself, not the rule
// AppendJSON uses.
func refusable(st *ledger.Statement) bool {
	escaped := func(s string) bool {
		b, err := json.Marshal(s)
		return err != nil || string(b) != `"`+s+`"`
	}
	nonFinite := func(fs ...float64) bool {
		for _, f := range fs {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return true
			}
		}
		return false
	}
	if escaped(st.Tenant) || nonFinite(st.Commercial, st.Billed, st.Discount) {
		return true
	}
	for _, l := range st.Lines {
		if nonFinite(l.Commercial, l.Billed) {
			return true
		}
		for i, b := range l.Bills {
			if escaped(b.Pricer) || nonFinite(b.Billed) || i > 0 && l.Bills[i-1].Pricer >= b.Pricer {
				return true
			}
		}
	}
	return false
}

// checkStatementJSON holds st's two encoders to encoding/json's bytes for
// the map-typed statement: AppendJSON writes them or refuses for a reason
// refusable names, and json.Marshal through Bills.MarshalJSON writes them or
// fails where the map-typed statement fails. What AppendJSON writes decodes
// back to st.
func checkStatementJSON(t *testing.T, st *ledger.Statement) {
	t.Helper()
	want, wantErr := encodeJSON(ledgertest.MapOf(st))
	prefix := []byte("head:")
	got, ok := st.AppendJSON(prefix)
	switch {
	case !bytes.Equal(got[:min(len(got), len(prefix))], prefix):
		t.Fatalf("AppendJSON overwrote its dst: %q", got)
	case ok && (wantErr != nil || !bytes.Equal(got[len(prefix):], want)):
		t.Fatalf("AppendJSON wrote\n%s\nencoding/json wrote\n%s (%v)\nfor %+v", got[len(prefix):], want, wantErr, st)
	case !ok && len(got) != len(prefix):
		t.Fatalf("AppendJSON refused but left %q", got[len(prefix):])
	case !ok && !refusable(st):
		t.Fatalf("AppendJSON refused a statement encoding/json writes as it stands: %s", want)
	}
	viaBills, err := encodeJSON(st)
	if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(viaBills, want) {
		t.Fatalf("encoding/json with Bills wrote\n%s (%v)\nwith maps\n%s (%v)", viaBills, err, want, wantErr)
	}
	if ok {
		var back ledger.Statement
		if err := json.Unmarshal(got[len(prefix):], &back); err != nil || !reflect.DeepEqual(&back, st) {
			t.Fatalf("AppendJSON's %s decodes to %+v, %v; want %+v", got[len(prefix):], back, err, st)
		}
	}
}

// checkBillsDecode holds Bills.UnmarshalJSON to a map[string]float64
// decode of the same bytes: the same error, nil exactly when the map is,
// and the map's pricers, each once and in order, with its amounts' bits.
func checkBillsDecode(t *testing.T, data []byte) {
	t.Helper()
	var m map[string]float64
	errM := json.Unmarshal(data, &m)
	var b ledger.Bills
	errB := json.Unmarshal(data, &b)
	if errText(errM) != errText(errB) {
		t.Fatalf("%q: Bills error %v, map error %v", data, errB, errM)
	}
	same := (m == nil) == (b == nil) && len(m) == len(b)
	for i, x := range b {
		v, found := m[x.Pricer]
		same = same && found && math.Float64bits(v) == math.Float64bits(x.Billed) && (i == 0 || b[i-1].Pricer < x.Pricer)
	}
	if !same {
		t.Fatalf("%q: Bills %#v, map %#v", data, b, m)
	}
}

// plainStatement is ledger.Statement without its methods: what encoding/json
// decodes a statement to on its own.
type plainStatement ledger.Statement

// checkStatementDecode holds a whole-statement decode to encoding/json's
// decode of the same bytes into plainStatement: json.Unmarshal through
// Statement.UnmarshalJSON yields the same value (under %#v: float bits, nil
// vs empty) and the same error, plainStatement's name put back to
// Statement's, and ReadJSON takes only bytes encoding/json decodes without
// error, to the same value. wantFast says data is AppendJSON's output,
// which ReadJSON must take.
func checkStatementDecode(t *testing.T, data []byte, wantFast bool) {
	t.Helper()
	var ref plainStatement
	refErr := json.Unmarshal(data, &ref)
	want := fmt.Sprintf("%#v", ledger.Statement(ref))
	wantErr := strings.ReplaceAll(errText(refErr), "ledger_test.plainStatement", "ledger.Statement")
	wantErr = strings.ReplaceAll(wantErr, "plainStatement.", "Statement.")
	var got ledger.Statement
	err := json.Unmarshal(data, &got)
	if g := fmt.Sprintf("%#v", got); g != want || errText(err) != wantErr {
		t.Fatalf("%q decodes to\n%s, %v\nencoding/json decodes\n%s, %s", data, g, err, want, wantErr)
	}
	var fast ledger.Statement
	if fast.ReadJSON(bytes.TrimSuffix(data, []byte("\n"))) {
		if g := fmt.Sprintf("%#v", fast); refErr != nil || g != want {
			t.Fatalf("ReadJSON took %q to\n%s\nencoding/json decodes\n%s, %v", data, g, want, refErr)
		}
	} else if wantFast {
		t.Fatalf("ReadJSON declined AppendJSON's %q", data)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// floatEdges are amounts where a float writer goes wrong: signed zero, the
// smallest subnormal, both sides of the exponent-form thresholds (1e-6 and
// 1e21), the largest finite value.
var floatEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 9.99e-7, 1e-6, 0.000001234,
	0.1, 1, -1.5, 123456.789, 1e20, 99999999999999999999, 1e21, -1e21, 1.5e300, 1e308, math.MaxFloat64,
}

// odd are strings encoding/json rewrites or that look as if it might.
var odd = []string{
	"acme", "", "a<b", "b>a", "a&b", `q"uote`, `back\slash`, "tab\there", "nul\x00", "\x1f", "\x7f",
	"naïve", "日本", "\u2028", "\u2029", "a\u2028b", "\xff", "\xe2\x80", "\U0001F600", "\ufffd",
}

func TestStatementJSON(t *testing.T) {
	bills := func(kv ...any) ledger.Bills {
		b := ledger.Bills{}
		for i := 0; i < len(kv); i += 2 {
			b = append(b, ledger.Bill{Pricer: kv[i].(string), Billed: kv[i+1].(float64)})
		}
		return b
	}
	line := func(w int, b ledger.Bills) ledger.Line {
		return ledger.Line{Window: w, StartMinute: 60 * w, Invocations: int64(w + 1), Commercial: 2.5, Billed: 1.25, Bills: b}
	}
	base := func() ledger.Statement {
		return ledger.Statement{
			Tenant: "acme", WindowMinutes: 60, ToMinute: -1, Invocations: 3, Commercial: 7.5, Billed: 3.75, Discount: 0.5,
			Lines: []ledger.Line{line(0, bills("litmus", 1.25)), line(2, bills("commercial", 2.5, "litmus", 1.25, "poppa", 1e-7))},
		}
	}
	cases := map[string]func(*ledger.Statement){
		"plain":         func(*ledger.Statement) {},
		"empty lines":   func(st *ledger.Statement) { st.Lines = []ledger.Line{} },
		"nil lines":     func(st *ledger.Statement) { st.Lines = nil },
		"nil bills":     func(st *ledger.Statement) { st.Lines[0].Bills = nil },
		"empty bills":   func(st *ledger.Statement) { st.Lines[0].Bills = ledger.Bills{} },
		"four pricers":  func(st *ledger.Statement) { st.Lines[0].Bills = bills("a", 1.0, "b", 2.0, "c", 3.0, "d", 4.0) },
		"negative zero": func(st *ledger.Statement) { st.Discount = math.Copysign(0, -1) },
		"exponents":     func(st *ledger.Statement) { st.Commercial, st.Billed = 1e21, 5e-324 },
		"largest":       func(st *ledger.Statement) { st.Lines[0].Commercial = math.MaxFloat64 },
		"range":         func(st *ledger.Statement) { st.FromMinute, st.ToMinute, st.Lines[0].Window = 120, 7199, -3 },
		"+Inf total":    func(st *ledger.Statement) { st.Commercial = math.Inf(1) },
		"NaN discount":  func(st *ledger.Statement) { st.Discount = math.NaN() },
		"-Inf line":     func(st *ledger.Statement) { st.Lines[1].Billed = math.Inf(-1) },
		"+Inf bill":     func(st *ledger.Statement) { st.Lines[1].Bills[2].Billed = math.Inf(1) },
		"out of order":  func(st *ledger.Statement) { st.Lines[1].Bills = bills("litmus", 1.0, "commercial", 2.0) },
		"pricer twice":  func(st *ledger.Statement) { st.Lines[1].Bills = bills("litmus", 1.0, "litmus", 2.0) },
	}
	for _, s := range odd {
		cases["tenant "+s] = func(st *ledger.Statement) { st.Tenant = s }
		cases["pricer "+s] = func(st *ledger.Statement) { st.Lines[1].Bills = bills("a", 1.0, s, 2.0) }
	}
	for _, f := range floatEdges {
		cases["amount "+string(mustJSON(t, f))] = func(st *ledger.Statement) {
			st.Billed, st.Lines[0].Commercial, st.Lines[1].Bills[0].Billed = f, -f, f
		}
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			st := base()
			edit(&st)
			checkStatementJSON(t, &st)
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// billsDocs are bills objects in every spelling a map decode accepts or
// refuses: key order, a repeated pricer, whitespace, escapes, null, numbers
// strconv refuses, and what is not an object at all.
var billsDocs = []string{
	`{"litmus":1.5}`, `{}`, `null`, `{"b":1,"a":2}`, `{"a":1,"a":2}`, `{"b":1,"a":2,"b":3}`,
	`{ "a" : 1 }`, ` {"a":1}`, "{\"a\":1}\n", `{"a":1e2}`, `{"a\"b":1}`, `{"\u2028":1}`, `{"a\u0000":1}`,
	`{"<&>":-0}`, `{"a":5e-324,"b":1.7976931348623157e308}`, `{"a":1e999}`, `{"a":-1e999,"b":1}`,
	`{"a":"x"}`, `{"a":null}`, `{"a":true}`, `{"a":{}}`, `[1]`, `1`, `"x"`, `true`,
	`{"a":01}`, `{"a":1.}`, `{"a":+1}`, `{"a":1,}`, `{"a"}`, `{`, ``, `{"a":1}x`, `{"a":1}{"b":2}`,
	"{\"\xff\":1}", `{"日本":1.25E+3}`, `{"":0}`, `{"a":0.000001234,"b":1e21,"c":-1e-7}`,
}

func TestBillsUnmarshalJSON(t *testing.T) {
	for _, doc := range billsDocs {
		checkBillsDecode(t, []byte(doc))
	}
}

func TestStatementDecode(t *testing.T) {
	for _, doc := range append(statementDocs, billsDocs...) {
		checkStatementDecode(t, []byte(doc), false)
	}
}

// statementDocs are whole statements in spellings encoding/json accepts or
// refuses that AppendJSON never writes.
var statementDocs = []string{
	`{"tenant":"t","windowMinutes":1,"fromMinute":0,"toMinute":-1,"invocations":1,"commercial":1,"billed":1,"discount":0,"lines":[{"window":0,"startMinute":0,"invocations":1,"commercial":1,"billed":1,"bills":{"b":1,"a":2,"b":3}}]}`,
	`{"tenant":"t","windowMinutes":1,"fromMinute":0,"toMinute":-1,"invocations":1,"commercial":1,"billed":1,"discount":0,"lines":[{"window":0,"startMinute":0,"invocations":1,"commercial":1,"billed":1,"bills":{ "a" : 1 }}]}`,
	`{"tenant":"a\u003cb","windowMinutes":1,"fromMinute":0,"toMinute":-1,"invocations":1,"commercial":1,"billed":1,"discount":0,"lines":[]}`,
	`{"tenant":"t","windowMinutes":1e3,"fromMinute":0,"toMinute":-1,"invocations":1,"commercial":1,"billed":1,"discount":0,"lines":[]}`,
	`{"tenant":"t","windowMinutes":1,"fromMinute":0,"toMinute":-1,"invocations":9223372036854775808,"commercial":1,"billed":1,"discount":0,"lines":null}`,
	`{"tenant":"t","windowMinutes":1,"fromMinute":0,"toMinute":-1,"invocations":1,"commercial":1,"billed":1,"discount":0,"lines":[]}{"tenant":"u"}`,
	`{"Tenant":"t","LINES":[{"Window":3,"bills":{"x":1}}],"tenant":"u"}`, `{"tenant":"t","tenant":"u"}`, `null`, `[]`, `"t"`,
	`{"tenant":"t","lines":[1]}`, `{"tenant":"t","lines":[{"window":"0"}]}`, `{"lines":[{"bills":[]}]}`, ` {"tenant":"t"}`,
}

// FuzzStatementJSON runs both halves of the statement's hand-written JSON
// against encoding/json: a statement generated from the inputs through
// checkStatementJSON — the tenant as given, pricers split from one string on
// '|', amounts, line count (0–6) and pricers per line (0–4) drawn from seed
// — with what its two encoders write decoded back through
// checkStatementDecode, and the raw bytes through checkBillsDecode and, as a
// whole statement, checkStatementDecode.
func FuzzStatementJSON(f *testing.F) {
	f.Add("acme", "litmus", uint64(1), []byte(`{"litmus":1.5}`))
	f.Add("acme", "commercial|litmus|poppa", uint64(2), []byte(`{"b":1,"a":2}`))
	f.Add("a<b>&c", "x&y|<p>", uint64(3), []byte(`{ "a" : 1 }`))
	f.Add(`q"uo\te`, "tab\t|\x00|\x1f", uint64(4), []byte(`{"a":1,"a":2}`))
	f.Add("naïve 日本", "\u2028|\u2029|é", uint64(5), []byte(`null`))
	f.Add("\xff", "\xe2\x80|a", uint64(6), []byte(`{"a":1e2}`))
	f.Add("", "", uint64(7), []byte(`{}`))
	for i, doc := range billsDocs {
		f.Add("t", "litmus|commercial", uint64(100+i), []byte(doc))
	}
	for i, doc := range statementDocs {
		f.Add("t", "litmus", uint64(200+i), []byte(doc))
	}
	f.Fuzz(func(t *testing.T, tenant, pricers string, seed uint64, bills []byte) {
		st := genStatement(tenant, strings.Split(pricers, "|"), seed)
		checkStatementJSON(t, st)
		if body, ok := st.AppendJSON(nil); ok {
			checkStatementDecode(t, body, true)
		}
		if body, err := encodeJSON(st); err == nil {
			checkStatementDecode(t, body, false)
		}
		checkBillsDecode(t, bills)
		checkStatementDecode(t, bills, false)
	})
}

// genStatement draws a statement from seed over the given tenant and pricer
// names. Amounts come from floatEdges, random bits (NaN and ±Inf now and
// then), or a random magnitude; Lines and a line's Bills are sometimes nil.
func genStatement(tenant string, names []string, seed uint64) *ledger.Statement {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	amount := func() float64 {
		switch rng.IntN(64) {
		case 0:
			return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.IntN(3)]
		case 1, 2, 3, 4, 5, 6, 7, 8:
			return math.Float64frombits(rng.Uint64())
		case 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24:
			return floatEdges[rng.IntN(len(floatEdges))]
		default:
			return rng.Float64() * math.Pow(10, float64(rng.IntN(60)-30))
		}
	}
	st := &ledger.Statement{
		Tenant: tenant, WindowMinutes: rng.IntN(1440), FromMinute: rng.IntN(100), ToMinute: rng.IntN(200) - 1,
		Invocations: rng.Int64() - rng.Int64(), Commercial: amount(), Billed: amount(), Discount: amount(),
	}
	n := rng.IntN(7)
	if n > 0 || rng.IntN(2) == 0 {
		st.Lines = make([]ledger.Line, 0, n)
	}
	for range n {
		l := ledger.Line{Window: rng.Int() - rng.Int(), StartMinute: rng.IntN(1 << 20), Invocations: rng.Int64N(1 << 40), Commercial: amount(), Billed: amount()}
		m := map[string]float64{}
		for range rng.IntN(5) {
			m[names[rng.IntN(len(names))]] = amount()
		}
		if len(m) > 0 || rng.IntN(4) > 0 {
			l.Bills = ledger.Bills{}
		}
		for _, p := range slices.Sorted(maps.Keys(m)) {
			l.Bills = append(l.Bills, ledger.Bill{Pricer: p, Billed: m[p]})
		}
		st.Lines = append(st.Lines, l)
	}
	return st
}

// BenchmarkStatementDecode measures what a Go client spends decoding a
// 60-window statement body, billed under one pricer and under three, into
// a Statement (api.StatementResponse is the same type).
func BenchmarkStatementDecode(b *testing.B) {
	for _, pricers := range [][]string{{"litmus"}, {"commercial", "litmus", "litmus-method1"}} {
		b.Run(fmt.Sprintf("60x%d", len(pricers)), func(b *testing.B) {
			st := ledger.Statement{Tenant: "t0", WindowMinutes: 1, ToMinute: -1, Lines: []ledger.Line{}}
			for w := range 60 {
				l := ledger.Line{Window: w, StartMinute: w, Invocations: 64, Commercial: 0.5 + float64(w)/1024, Billed: 0.25}
				for i, p := range pricers {
					l.Bills = append(l.Bills, ledger.Bill{Pricer: p, Billed: 0.25 + float64(i)/3})
				}
				st.Lines = append(st.Lines, l)
			}
			body, err := json.Marshal(ledgertest.MapOf(&st))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				var got ledger.Statement
				if err := json.Unmarshal(body, &got); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
