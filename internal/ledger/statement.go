package ledger

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"strings"

	"repro/internal/jsonnum"
)

// Bill is one pricer's billed amount in a window.
type Bill struct {
	Pricer string
	Billed float64
}

// Bills is a window's billed amount per pricer, sorted by pricer, each
// pricer once. A window sees one pricer or a few, so a scan beats a hash;
// the order makes a window's value independent of the order its pricers
// arrived in, so a recovered or replicated window equals the live one. The
// live window keeps one and a statement line carries a copy.
//
// On the wire it is the JSON object {"pricer":billed,…} a map[string]float64
// encodes to, byte for byte (TestStatementJSON and FuzzStatementJSON hold
// MarshalJSON and UnmarshalJSON to that map).
type Bills []Bill

// add bills v to pricer, inserting the pricer in order on first sight.
func (b *Bills) add(pricer string, v float64) {
	i, found := b.search(pricer)
	if found {
		(*b)[i].Billed += v
		return
	}
	*b = slices.Insert(*b, i, Bill{pricer, v})
}

// set makes v pricer's amount, as a map assignment would.
func (b *Bills) set(pricer string, v float64) {
	i, found := b.search(pricer)
	if found {
		(*b)[i].Billed = v
		return
	}
	*b = slices.Insert(*b, i, Bill{pricer, v})
}

// search finds pricer's position, or where it would go.
func (b Bills) search(pricer string) (int, bool) {
	i := 0
	for ; i < len(b); i++ {
		if b[i].Pricer == pricer {
			return i, true
		}
		if b[i].Pricer > pricer {
			break
		}
	}
	return i, false
}

// Get is pricer's billed amount, 0 when the window never billed it.
func (b Bills) Get(pricer string) float64 {
	if i, found := b.search(pricer); found {
		return b[i].Billed
	}
	return 0
}

// MarshalJSON writes the object a map[string]float64 of the same bills
// writes: pricers in byte order, null for nil Bills.
func (b Bills) MarshalJSON() ([]byte, error) {
	if out, ok := b.appendJSON(nil); ok {
		return out, nil
	}
	return json.Marshal(b.asMap())
}

// UnmarshalJSON reads what decoding into a fresh map[string]float64 reads —
// a later duplicate pricer wins, null is nil Bills — and keeps it sorted.
// An object without whitespace, escapes or numbers strconv refuses is read
// here (billsReader); anything else goes through that map, so every
// leniency and every error stays encoding/json's.
func (b *Bills) UnmarshalJSON(data []byte) error {
	c := jsonnum.NewCursor(data)
	// Every pricer is followed by a colon, so the colons bound the count.
	r := billsReader{free: make(Bills, 0, bytes.Count(data, []byte{':'}))}
	if bills := r.read(&c); c.Done() {
		*b = bills
		return nil
	}
	var m map[string]float64
	err := json.Unmarshal(data, &m)
	if m == nil {
		*b = nil
		return err
	}
	bills := make(Bills, 0, len(m))
	for pricer, v := range m {
		bills = append(bills, Bill{pricer, v})
	}
	slices.SortFunc(bills, func(x, y Bill) int { return strings.Compare(x.Pricer, y.Pricer) })
	*b = bills
	return err
}

func (b Bills) asMap() map[string]float64 {
	if b == nil {
		return nil
	}
	m := make(map[string]float64, len(b))
	for _, x := range b {
		m[x.Pricer] = x.Billed
	}
	return m
}

// appendJSON appends b as encoding/json writes the map it holds, or reports
// false, with dst untouched, for what takes encoding/json to write: a
// pricer it would escape, a non-finite amount, or pricers out of order.
func (b Bills) appendJSON(dst []byte) ([]byte, bool) {
	if b == nil {
		return append(dst, "null"...), true
	}
	n := len(dst)
	dst = append(dst, '{')
	for i, x := range b {
		if !jsonnum.PlainString(x.Pricer) || !jsonnum.Finite(x.Billed) || i > 0 && b[i-1].Pricer >= x.Pricer {
			return dst[:n], false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, x.Pricer...)
		dst = append(dst, '"', ':')
		dst = jsonnum.AppendFloat(dst, x.Billed)
	}
	return append(dst, '}'), true
}

// billsReader is the one reader of bills objects whose bytes are their own
// decoding: no whitespace, keys of valid UTF-8 without escapes or control
// bytes, JSON-grammar numbers strconv takes. The objects one reader reads
// share its arena, and a pricer name it has read before is not copied again.
type billsReader struct {
	// free is the arena's unused tail (length 0, never nil): the next object
	// fills it from the front.
	free Bills
	// names interns the first pricer names read; a statement bills under one
	// pricer or a few.
	names [4]string
	n     int
}

// read reads one object off c as a fresh map[string]float64 decodes it — a
// later duplicate pricer wins — into Bills sorted by pricer, capped at
// their length so an append to them cannot reach the next object's. It
// fails c on anything else.
func (r *billsReader) read(c *jsonnum.Cursor) Bills {
	c.Lit("{")
	bills := r.free[:0]
	if c.OK() && !c.Is("}") {
		for {
			key := c.Str()
			c.Lit(":")
			v := c.Float()
			if !c.OK() {
				return nil
			}
			bills.set(r.intern(key), v)
			if !c.Is(",") {
				break
			}
		}
		c.Lit("}")
	}
	n := len(bills)
	r.free = bills[n:n]
	return bills[:n:n]
}

func (r *billsReader) intern(name []byte) string {
	for _, s := range r.names[:r.n] {
		if s == string(name) {
			return s
		}
	}
	s := string(name)
	if r.n < len(r.names) {
		r.names[r.n] = s
		r.n++
	}
	return s
}

// Line is one statement window: the invocations billed in
// [StartMinute, StartMinute+WindowMinutes) with commercial-vs-charged
// totals and one billed amount per pricer (Bills). Its wire bytes are
// encoding/json's; Statement.AppendJSON writes them by hand.
type Line struct {
	Window      int     `json:"window"`
	StartMinute int     `json:"startMinute"`
	Invocations int64   `json:"invocations"`
	Commercial  float64 `json:"commercial"`
	Billed      float64 `json:"billed"`
	Bills       Bills   `json:"bills"`
}

// Statement is a tenant's windowed bill over a minute range — the wire body
// of GET /v3/tenants/{tenant}/statement. Its wire bytes are encoding/json's,
// which AppendJSON writes without reflection; TestStatementJSON and
// FuzzStatementJSON hold the two to the same bytes.
type Statement struct {
	Tenant        string `json:"tenant"`
	WindowMinutes int    `json:"windowMinutes"`
	// FromMinute / ToMinute echo the requested range; ToMinute < 0 means
	// open-ended.
	FromMinute int `json:"fromMinute"`
	ToMinute   int `json:"toMinute"`
	// Totals aggregate the included windows only.
	Invocations int64   `json:"invocations"`
	Commercial  float64 `json:"commercial"`
	Billed      float64 `json:"billed"`
	Discount    float64 `json:"discount"`
	// Lines holds the included windows sorted by window index; never nil,
	// so an empty range encodes as [].
	Lines []Line `json:"lines"`
}

// AppendJSON appends the bytes json.NewEncoder(w).Encode(st) writes, its
// newline included, or reports false, with dst untouched, when st holds
// what only encoding/json may decide: a string it would escape, a number it
// refuses (NaN, ±Inf), or bills out of pricer order.
func (st *Statement) AppendJSON(dst []byte) ([]byte, bool) {
	n := len(dst)
	if !jsonnum.PlainString(st.Tenant) || !jsonnum.Finite(st.Commercial) || !jsonnum.Finite(st.Billed) || !jsonnum.Finite(st.Discount) {
		return dst, false
	}
	dst = append(dst, `{"tenant":"`...)
	dst = append(dst, st.Tenant...)
	dst = append(dst, `","windowMinutes":`...)
	dst = strconv.AppendInt(dst, int64(st.WindowMinutes), 10)
	dst = append(dst, `,"fromMinute":`...)
	dst = strconv.AppendInt(dst, int64(st.FromMinute), 10)
	dst = append(dst, `,"toMinute":`...)
	dst = strconv.AppendInt(dst, int64(st.ToMinute), 10)
	dst = append(dst, `,"invocations":`...)
	dst = strconv.AppendInt(dst, st.Invocations, 10)
	dst = jsonnum.AppendFloat(append(dst, `,"commercial":`...), st.Commercial)
	dst = jsonnum.AppendFloat(append(dst, `,"billed":`...), st.Billed)
	dst = jsonnum.AppendFloat(append(dst, `,"discount":`...), st.Discount)
	dst = append(dst, `,"lines":`...)
	if st.Lines == nil {
		return append(dst, "null}\n"...), true
	}
	dst = append(dst, '[')
	for i := range st.Lines {
		l := &st.Lines[i]
		if !jsonnum.Finite(l.Commercial) || !jsonnum.Finite(l.Billed) {
			return dst[:n], false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"window":`...)
		dst = strconv.AppendInt(dst, int64(l.Window), 10)
		dst = append(dst, `,"startMinute":`...)
		dst = strconv.AppendInt(dst, int64(l.StartMinute), 10)
		dst = append(dst, `,"invocations":`...)
		dst = strconv.AppendInt(dst, l.Invocations, 10)
		dst = jsonnum.AppendFloat(append(dst, `,"commercial":`...), l.Commercial)
		dst = jsonnum.AppendFloat(append(dst, `,"billed":`...), l.Billed)
		var ok bool
		if dst, ok = l.Bills.appendJSON(append(dst, `,"bills":`...)); !ok {
			return dst[:n], false
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), true
}

// plainStatement is Statement without its methods: encoding/json's own
// decoding of it.
type plainStatement Statement

// UnmarshalJSON reads the layout AppendJSON writes by hand (ReadJSON) and
// hands anything else — whitespace, escapes, other key orders or spellings,
// null, a receiver that already holds a statement — to encoding/json, so
// every value and every error is the one encoding/json decodes.
func (st *Statement) UnmarshalJSON(data []byte) error {
	if st.ReadJSON(data) {
		return nil
	}
	return jsonnum.Unalias[plainStatement, Statement](json.Unmarshal(data, (*plainStatement)(st)))
}

// ReadJSON decodes data into st, which must be the zero Statement, when data
// is laid out as AppendJSON writes it (its newline aside): keys in that
// order, no whitespace, strings that need no unescaping, numbers that fit
// their fields. It reports whether it did; when it did not, st is
// untouched. The lines share one array and their bills one arena, and a
// pricer's name is one string however many lines bill it.
func (st *Statement) ReadJSON(data []byte) bool {
	if st.Tenant != "" || st.WindowMinutes != 0 || st.FromMinute != 0 || st.ToMinute != 0 || st.Invocations != 0 ||
		st.Commercial != 0 || st.Billed != 0 || st.Discount != 0 || st.Lines != nil {
		return false
	}
	c := jsonnum.NewCursor(data)
	var s Statement
	c.Lit(`{"tenant":`)
	s.Tenant = string(c.Str())
	c.Lit(`,"windowMinutes":`)
	s.WindowMinutes = c.Int()
	c.Lit(`,"fromMinute":`)
	s.FromMinute = c.Int()
	c.Lit(`,"toMinute":`)
	s.ToMinute = c.Int()
	c.Lit(`,"invocations":`)
	s.Invocations = c.Int64()
	c.Lit(`,"commercial":`)
	s.Commercial = c.Float()
	c.Lit(`,"billed":`)
	s.Billed = c.Float()
	c.Lit(`,"discount":`)
	s.Discount = c.Float()
	c.Lit(`,"lines":`)
	if !c.Is("null") {
		s.Lines = readLines(&c, data)
	}
	c.Lit("}")
	if !c.Done() {
		return false
	}
	*st = s
	return true
}

// readLines reads a statement's lines array off c; data is the whole
// statement, whose counts size the lines array and the bills arena.
func readLines(c *jsonnum.Cursor, data []byte) []Line {
	c.Lit("[")
	if !c.OK() {
		return nil
	}
	n := bytes.Count(data, []byte(`{"window":`))
	lines := make([]Line, 0, n)
	// A line holds six keys and the statement nine; every other colon
	// follows a pricer (one inside a name only overcounts).
	r := billsReader{free: make(Bills, 0, max(0, bytes.Count(data, []byte{':'})-9-6*n))}
	if c.Is("]") {
		return lines
	}
	for {
		var l Line
		c.Lit(`{"window":`)
		l.Window = c.Int()
		c.Lit(`,"startMinute":`)
		l.StartMinute = c.Int()
		c.Lit(`,"invocations":`)
		l.Invocations = c.Int64()
		c.Lit(`,"commercial":`)
		l.Commercial = c.Float()
		c.Lit(`,"billed":`)
		l.Billed = c.Float()
		c.Lit(`,"bills":`)
		if !c.Is("null") {
			l.Bills = r.read(c)
		}
		c.Lit("}")
		if !c.OK() {
			return nil
		}
		lines = append(lines, l)
		if !c.Is(",") {
			break
		}
	}
	c.Lit("]")
	return lines
}
