package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jsonnum"
	"repro/internal/ledger"
)

// plainStatement is ledger.Statement without its methods, the reference
// the statement answer is held to.
type plainStatement ledger.Statement

// checkAnswer holds every way a client decodes an answer of type T to
// encoding/json decoding the same bytes into A, T's method-free copy:
// json.Unmarshal (T's UnmarshalJSON), readAnswer (the client's body decode)
// against a json.Decoder — the first value, trailing bytes unread — and
// ReadJSON on the bytes without trailing whitespace, which may only accept
// what encoding/json decodes without error.
// The values must print alike under %#v (float bits, nil vs empty slices)
// and the errors read alike with A's name put back to T's. wantFast says the
// bytes are writer output the hand-written reader must take.
func checkAnswer[T, A any](t *testing.T, data []byte, wantFast bool) {
	t.Helper()
	alias, typ := reflect.TypeFor[A](), reflect.TypeFor[T]()
	same := func(how string, got *T, gotErr error, ref *A, refErr error) {
		t.Helper()
		want := reflect.ValueOf(ref).Elem().Convert(typ).Interface()
		wantErr := ""
		if refErr != nil {
			wantErr = strings.ReplaceAll(refErr.Error(), alias.String(), typ.String())
			wantErr = strings.ReplaceAll(wantErr, alias.Name()+".", typ.Name()+".")
		}
		if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", want); g != w || errText(gotErr) != wantErr {
			t.Fatalf("%s of %q:\n got %s, %v\nwant %s, %s", how, data, g, gotErr, w, wantErr)
		}
	}

	var ref, refDec A
	refErr := json.Unmarshal(data, &ref)
	refDecErr := json.NewDecoder(bytes.NewReader(data)).Decode(&refDec)

	var got, gotDec, fast T
	same("json.Unmarshal", &got, json.Unmarshal(data, &got), &ref, refErr)
	same("readAnswer", &gotDec, readAnswer(bytes.NewReader(data), &gotDec), &refDec, refDecErr)
	if any(&fast).(answerReader).ReadJSON(bytes.TrimRight(data, " \t\r\n")) {
		if refErr != nil {
			t.Fatalf("ReadJSON took %q, which encoding/json refuses: %v", data, refErr)
		}
		same("ReadJSON", &fast, nil, &ref, nil)
	} else if wantFast {
		t.Fatalf("ReadJSON declined writer output %q", data)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// writeAnswer is the body WriteJSON writes for v, or false when encoding/json
// refuses v.
func writeAnswer(v any) ([]byte, bool) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err == nil
}

// plainAll reports whether encoding/json writes every string as it stands,
// so writer output holds no escape and the hand-written reader must take it.
func plainAll(ss ...string) bool {
	for _, s := range ss {
		if !jsonnum.PlainString(s) {
			return false
		}
	}
	return true
}

// answerInts are integers where a reader goes wrong: signs, zero, the
// largest 18- and 19-digit values and the int64 edges.
var answerInts = []int64{0, 1, -1, 7, 999999999999999999, -999999999999999999, math.MaxInt64, math.MinInt64}

// answerFloat draws an amount a writer emits: an edge, a magnitude, or
// random finite bits.
func answerFloat(rng *rand.Rand) float64 {
	edges := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e21, 1e20, math.MaxFloat64, -0.5, 0.1}
	switch rng.IntN(4) {
	case 0:
		return edges[rng.IntN(len(edges))]
	case 1:
		if f := math.Float64frombits(rng.Uint64()); jsonnum.Finite(f) {
			return f
		}
		return 1.5
	default:
		return rng.Float64() * math.Pow(10, float64(rng.IntN(40)-20))
	}
}

func answerInt(rng *rand.Rand) int64 {
	if rng.IntN(3) == 0 {
		return answerInts[rng.IntN(len(answerInts))]
	}
	return rng.Int64N(1 << 20)
}

// genPage draws a tenant page over names (rows 0–6, sometimes nil or
// empty, a cursor now and then).
func genPage(names []string, seed uint64) *TenantPage {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	page := &TenantPage{}
	n := rng.IntN(7)
	if n > 0 || rng.IntN(2) == 0 {
		page.Tenants = make([]TenantSummary, 0, n)
	}
	for range n {
		page.Tenants = append(page.Tenants, TenantSummary{
			Tenant: names[rng.IntN(len(names))], Invocations: answerInt(rng),
			Commercial: answerFloat(rng), Billed: answerFloat(rng), Discount: answerFloat(rng),
		})
	}
	if rng.IntN(2) == 0 {
		page.NextCursor = names[rng.IntN(len(names))]
	}
	return page
}

// genUsage draws a usage answer over names for its messages: counts, a
// throttle and retry delay now and then, 0–3 line errors, a stream error.
func genUsage(names []string, seed uint64) *UsageStreamResponse {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	n := func() int { return int(answerInt(rng)) }
	r := &UsageStreamResponse{Lines: n(), UsageCounts: UsageCounts{Accepted: n(), Duplicates: n(), Rejected: n(), Dropped: n()}}
	if rng.IntN(3) == 0 {
		r.Throttled, r.RetryAfterSec = n(), answerFloat(rng)
	}
	for range rng.IntN(4) {
		e := Error{Status: 400 + rng.IntN(200), Message: names[rng.IntN(len(names))]}
		if rng.IntN(3) == 0 {
			e.RetryAfterSec = answerFloat(rng)
		}
		r.Errors = append(r.Errors, LineError{Line: n(), Error: e})
	}
	if rng.IntN(3) == 0 {
		r.StreamError = names[rng.IntN(len(names))]
	}
	return r
}

// answerDocs are bodies in spellings encoding/json accepts or refuses that
// the writers never emit, for the tenant page (p), the usage answer (u) and
// the statement (s).
var answerDocs = []string{
	`null`, `null` + "\n", ` null`, `{}`, `[]`, `"x"`, `1`, ``, `{`, `{"tenants":[]}x`, `{"tenants":[]}{"tenants":null}`,
	// p
	`{"tenants":[{"tenant":"a","invocations":1,"commercial":0.5,"billed":0.25,"discount":0.5}],"nextCursor":"a"}` + "\n",
	`{"tenants":null}`, `{"tenants":[]}`, `{"tenants":[],"nextCursor":""}`,
	`{"tenants":[{"tenant":"a\u003cb","invocations":1,"commercial":1,"billed":1,"discount":0}]}`,
	`{"tenants":[{"tenant":"<&>","invocations":1,"commercial":1,"billed":1,"discount":0}]}`,
	`{"tenants":[{"tenant":"naïve 日本","invocations":9223372036854775807,"commercial":1,"billed":1,"discount":0}]}`,
	`{"tenants":[{"tenant":"a","invocations":9223372036854775808,"commercial":1,"billed":1,"discount":0}]}`,
	`{"tenants":[{"tenant":"a","invocations":1e3,"commercial":1,"billed":1,"discount":0}]}`,
	`{"tenants":[{"tenant":"a","invocations":1,"commercial":1e999,"billed":1,"discount":0}]}`,
	`{"tenants":[{"tenant":"a","invocations":1,"commercial":1,"billed":1,"discount":0,"extra":1}]}`,
	`{"Tenants":[{"Tenant":"a","INVOCATIONS":2}],"NEXTCURSOR":"b"}`, `{"tenants":[],"tenants":null}`,
	`{"tenants":[],"nextCursor":"a","nextCursor":"b"}`, `{ "tenants" : [ ] }`, `{"tenants":[{"tenant":"a\"b"}]}`,
	`{"tenants":[{"tenant":"a","invocations":"1"}]}`, `{"tenants":{}}`, "{\"tenants\":[{\"tenant\":\"\xff\"}]}",
	// u
	`{"lines":3,"accepted":1,"duplicates":1,"rejected":1,"dropped":0}` + "\n",
	`{"lines":2,"accepted":0,"duplicates":0,"rejected":0,"dropped":0,"throttled":2,"retryAfterSec":1.5,"errors":[{"line":1,"error":{"status":429,"message":"slow down","retryAfterSec":1.5}},{"line":2,"error":{"status":429,"message":"slow down","retryAfterSec":0.5}}]}`,
	`{"lines":1,"accepted":0,"duplicates":0,"rejected":1,"dropped":0,"errors":[{"line":1,"error":{"status":400,"message":"no tenant \"x\""}}],"streamError":"cut"}`,
	`{"lines":1,"accepted":1,"duplicates":0,"rejected":0,"dropped":0,"errors":[]}`,
	`{"lines":1,"accepted":1,"duplicates":0,"rejected":0,"dropped":0,"errors":null}`,
	`{"lines":1e3,"accepted":1,"duplicates":0,"rejected":0,"dropped":0}`, `{"lines":-0,"accepted":1.0}`,
	`{"lines":1,"lines":2,"accepted":1,"duplicates":0,"rejected":0,"dropped":0}`, `{"LINES":4,"Accepted":4}`,
	`{"lines":9223372036854775807,"accepted":-9223372036854775808,"duplicates":0,"rejected":0,"dropped":0}`,
	`{"lines":1,"accepted":1,"duplicates":0,"rejected":0,"dropped":0,"streamError":"a\u2028b"}`,
	`{"lines":1,"accepted":1,"duplicates":0,"rejected":0,"dropped":0} `, `{"lines":"1"}`, `{"errors":[1]}`,
	// s
	`{"tenant":"t0","windowMinutes":60,"fromMinute":0,"toMinute":-1,"invocations":3,"commercial":7.5,"billed":3.75,"discount":0.5,"lines":[{"window":0,"startMinute":0,"invocations":3,"commercial":7.5,"billed":3.75,"bills":{"litmus":3.75}}]}` + "\n",
	`{"tenant":"t0","windowMinutes":60,"fromMinute":0,"toMinute":-1,"invocations":0,"commercial":0,"billed":0,"discount":0,"lines":null}`,
	`{"tenant":"t0","windowMinutes":60,"fromMinute":0,"toMinute":-1,"invocations":0,"commercial":0,"billed":0,"discount":0,"lines":[{"window":0,"startMinute":0,"invocations":1,"commercial":1,"billed":1,"bills":null},{"window":1,"startMinute":1,"invocations":1,"commercial":1,"billed":1,"bills":{}}]}`,
	`{"tenant":"t0","windowMinutes":1e3}`, `{"Tenant":"t0","LINES":[]}`, `{"tenant":"t0","lines":[{"bills":{"b":1,"a":2,"b":3}}]}`,
}

// FuzzTenantPageJSON holds the tenant page's reader to encoding/json: a
// page drawn from the inputs (names split on '|', the rest from seed) as
// WriteJSON writes it, which the reader must take when no name needs
// escaping, and the raw bytes as given.
func FuzzTenantPageJSON(f *testing.F) {
	f.Add("acme|globex", uint64(1), []byte(`{"tenants":[]}`))
	f.Add("a<b>&c|q\"uote|naïve 日本", uint64(2), []byte(`{"tenants":null}`))
	f.Add("\u2028|\xff|tab\t", uint64(3), []byte(`{ "tenants" : [ ] }`))
	for i, doc := range answerDocs {
		f.Add("t", uint64(100+i), []byte(doc))
	}
	f.Fuzz(func(t *testing.T, names string, seed uint64, data []byte) {
		page := genPage(strings.Split(names, "|"), seed)
		if body, ok := writeAnswer(page); ok {
			ss := []string{page.NextCursor}
			for _, r := range page.Tenants {
				ss = append(ss, r.Tenant)
			}
			checkAnswer[TenantPage, plainTenantPage](t, body, plainAll(ss...))
		}
		checkAnswer[TenantPage, plainTenantPage](t, data, false)
	})
}

// FuzzUsageStreamResponseJSON holds the usage answer's reader to
// encoding/json as FuzzTenantPageJSON does the page's, names being the
// error and stream-error messages.
func FuzzUsageStreamResponseJSON(f *testing.F) {
	f.Add("no tenant|cut", uint64(1), []byte(`{"lines":0}`))
	f.Add("line \"3\"|<b>|日本", uint64(2), []byte(`{"errors":[]}`))
	for i, doc := range answerDocs {
		f.Add("m", uint64(100+i), []byte(doc))
	}
	f.Fuzz(func(t *testing.T, names string, seed uint64, data []byte) {
		r := genUsage(strings.Split(names, "|"), seed)
		if body, ok := writeAnswer(r); ok {
			ss := []string{r.StreamError}
			for _, le := range r.Errors {
				ss = append(ss, le.Error.Message)
			}
			checkAnswer[UsageStreamResponse, plainUsageStreamResponse](t, body, plainAll(ss...))
		}
		checkAnswer[UsageStreamResponse, plainUsageStreamResponse](t, data, false)
	})
}

// TestAnswerDocs runs every answer doc through all three answer types.
func TestAnswerDocs(t *testing.T) {
	for _, doc := range answerDocs {
		checkAnswer[TenantPage, plainTenantPage](t, []byte(doc), false)
		checkAnswer[UsageStreamResponse, plainUsageStreamResponse](t, []byte(doc), false)
		checkAnswer[ledger.Statement, plainStatement](t, []byte(doc), false)
	}
}

// answerBodies are a 100-row page, a 60-window one-pricer statement and a
// clean usage answer as the node writes them.
func answerBodies(t *testing.T) (page, statement, usage []byte) {
	t.Helper()
	var p TenantPage
	for i := range 100 {
		p.Tenants = append(p.Tenants, TenantSummary{Tenant: fmt.Sprintf("tenant-%05d", i), Invocations: int64(64 * i), Commercial: 0.5 + float64(i)/1024, Billed: 0.25, Discount: 0.5})
	}
	p.NextCursor = p.Tenants[99].Tenant
	page, _ = writeAnswer(&p)
	st := ledger.Statement{Tenant: "t0", WindowMinutes: 1, ToMinute: -1, Invocations: 3840, Commercial: 40, Billed: 15, Discount: 0.625, Lines: []ledger.Line{}}
	for w := range 60 {
		st.Lines = append(st.Lines, ledger.Line{Window: w, StartMinute: w, Invocations: 64, Commercial: 0.5 + float64(w)/1024, Billed: 0.25,
			Bills: ledger.Bills{{Pricer: "litmus", Billed: 0.25}}})
	}
	statement, ok := st.AppendJSON(nil)
	if !ok {
		t.Fatal("AppendJSON refused the statement")
	}
	usage, _ = writeAnswer(&UsageStreamResponse{Lines: 512, UsageCounts: UsageCounts{Accepted: 512}})
	return page, statement, usage
}

// TestReadAnswerAllocs pins what a warm client decode of each answer costs:
// a 100-row page its rows and one string for its names, a 60-window
// one-pricer statement its tenant, lines, bills arena and pricer name, a
// usage answer nothing.
func TestReadAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	page, statement, usage := answerBodies(t)
	r := bytes.NewReader(nil)
	var p TenantPage
	var st ledger.Statement
	var u UsageStreamResponse
	for _, c := range []struct {
		name  string
		body  []byte
		out   answerReader
		reset func()
		max   float64
	}{
		{"page", page, &p, func() { p = TenantPage{} }, 2},
		{"statement", statement, &st, func() { st = ledger.Statement{} }, 4},
		{"usage", usage, &u, func() { u = UsageStreamResponse{} }, 0},
	} {
		if !c.out.ReadJSON(bytes.TrimSpace(c.body)) {
			t.Fatalf("%s: the hand-written reader declined %s", c.name, c.body)
		}
		decode := func() {
			c.reset()
			r.Reset(c.body)
			if err := readAnswer(r, c.out); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		if allocs := testing.AllocsPerRun(100, decode); allocs > c.max {
			t.Errorf("a warm %s decode allocates %v times, want at most %v", c.name, allocs, c.max)
		}
	}
}

// TestClientReadAnswerEdges drives Client.Tenants against handlers that
// answer what the node never does: a page past the pooled buffer, a page
// followed by a body that never ends, a second value after the first, and
// null. Each decodes as a json.Decoder over the body decodes it.
func TestClientReadAnswerEdges(t *testing.T) {
	var big TenantPage
	for i := range 15000 {
		big.Tenants = append(big.Tenants, TenantSummary{Tenant: fmt.Sprintf("tenant-%06d", i), Invocations: int64(i), Commercial: 1.5, Billed: 0.75, Discount: 0.5})
	}
	bigBody, _ := writeAnswer(&big)
	if len(bigBody) <= maxPooledBody {
		t.Fatalf("the big page is %d bytes, not past the %d-byte buffer", len(bigBody), maxPooledBody)
	}
	small, _, _ := answerBodies(t)
	endless := func(w http.ResponseWriter, r *http.Request) {
		w.Write(small)
		chunk := bytes.Repeat([]byte(" "), 32<<10)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}
	for name, handler := range map[string]http.HandlerFunc{
		"past the buffer": func(w http.ResponseWriter, _ *http.Request) { w.Write(bigBody) },
		"endless body":    endless,
		"second value": func(w http.ResponseWriter, _ *http.Request) {
			w.Write(append(append([]byte{}, small...), `{"tenants":null}`...))
		},
		"trailing bytes": func(w http.ResponseWriter, _ *http.Request) { w.Write(append(append([]byte{}, small...), "x"...)) },
		"null":           func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("null\n")) },
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(handler)
			defer ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			start := time.Now()
			got, err := NewClient(ts.URL).Tenants(ctx, "", 0)
			if took := time.Since(start); err != nil || took > 5*time.Second {
				t.Fatalf("Tenants: %v after %v", err, took)
			}
			// What the client decoded before it read answers by hand.
			resp, err := http.Get(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			var want plainTenantPage
			err = json.NewDecoder(resp.Body).Decode(&want)
			resp.Body.Close()
			if err != nil || !reflect.DeepEqual(got, TenantPage(want)) {
				t.Fatalf("decoded %d rows, cursor %q; a json.Decoder decodes %d rows, cursor %q (%v)",
					len(got.Tenants), got.NextCursor, len(want.Tenants), want.NextCursor, err)
			}
		})
	}
}
