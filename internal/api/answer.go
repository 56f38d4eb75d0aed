package api

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"

	"repro/internal/jsonnum"
)

// A read answer — a tenant page, a statement, a usage stream's accounting —
// is decoded by hand when its body is laid out as our writers lay it out,
// and by encoding/json otherwise: each type's ReadJSON accepts exactly that
// layout into a zero value and leaves anything else to its UnmarshalJSON,
// which hands it to encoding/json on a method-free copy of the type. Either
// way the value, and the error, are encoding/json's.

// answerReader is an answer type with a hand-written reader.
type answerReader interface{ ReadJSON([]byte) bool }

// readAnswer decodes a 2xx response body into out. A body of up to
// maxPooledBody is read whole into a pooled buffer and, for an answer type,
// read there by hand; any other body — longer, declined, or not an answer
// type — goes to a json.Decoder over the bytes already read and the rest
// (a response body that failed returns its error again), which decodes its
// first value and leaves what follows unread, as it did before the buffer.
func readAnswer(body io.Reader, out any) error {
	buf := getBody()
	defer buf.release()
	whole, err := buf.readFrom(body, maxPooledBody)
	if r, ok := out.(answerReader); ok && whole && err == nil && r.ReadJSON(bytes.TrimRight(buf.b, " \t\r\n")) {
		return nil
	}
	return json.NewDecoder(io.MultiReader(bytes.NewReader(buf.b), body)).Decode(out)
}

// readFrom appends r's bytes to buf until EOF (whole) or a read error, or
// until buf holds at least limit bytes.
func (buf *bodyBuf) readFrom(r io.Reader, limit int) (whole bool, err error) {
	for len(buf.b) < limit {
		if len(buf.b) == cap(buf.b) {
			buf.b = slices.Grow(buf.b, max(512, len(buf.b)))
		}
		n, err := r.Read(buf.b[len(buf.b):cap(buf.b)])
		buf.b = buf.b[:len(buf.b)+n]
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// plainTenantPage is TenantPage without its methods.
type plainTenantPage TenantPage

// UnmarshalJSON reads the layout the tenants listing writes (ReadJSON) and
// hands anything else to encoding/json.
func (p *TenantPage) UnmarshalJSON(data []byte) error {
	if p.ReadJSON(data) {
		return nil
	}
	return jsonnum.Unalias[plainTenantPage, TenantPage](json.Unmarshal(data, (*plainTenantPage)(p)))
}

// ReadJSON decodes data into p, which must be the zero TenantPage, when data
// is laid out as encoding/json writes a page (its newline aside): keys in
// field order, no whitespace, strings that need no unescaping, numbers that
// fit their fields. It reports whether it did; when it did not, p is
// untouched. The rows are one array, and every name in the page is a
// substring of one string that copies data.
func (p *TenantPage) ReadJSON(data []byte) bool {
	if p.Tenants != nil || p.NextCursor != "" {
		return false
	}
	c := jsonnum.NewCursor(data)
	var page TenantPage
	var shared string
	name := func() string {
		at := c.Pos() + 1
		s := c.Str()
		if len(s) == 0 {
			return ""
		}
		if shared == "" {
			shared = string(data)
		}
		return shared[at : at+len(s)]
	}
	c.Lit(`{"tenants":`)
	if !c.Is("null") {
		c.Lit("[")
		if c.OK() {
			page.Tenants = make([]TenantSummary, 0, bytes.Count(data, []byte(`{"tenant":`)))
			if !c.Is("]") {
				for {
					var t TenantSummary
					c.Lit(`{"tenant":`)
					t.Tenant = name()
					c.Lit(`,"invocations":`)
					t.Invocations = c.Int64()
					c.Lit(`,"commercial":`)
					t.Commercial = c.Float()
					c.Lit(`,"billed":`)
					t.Billed = c.Float()
					c.Lit(`,"discount":`)
					t.Discount = c.Float()
					c.Lit("}")
					if !c.OK() {
						return false
					}
					page.Tenants = append(page.Tenants, t)
					if !c.Is(",") {
						break
					}
				}
				c.Lit("]")
			}
		}
	}
	if c.Is(`,"nextCursor":`) {
		page.NextCursor = name()
	}
	c.Lit("}")
	if !c.Done() {
		return false
	}
	*p = page
	return true
}

// plainUsageStreamResponse is UsageStreamResponse without its methods.
type plainUsageStreamResponse UsageStreamResponse

// UnmarshalJSON reads the layout WriteUsageResponse writes (ReadJSON) and
// hands anything else to encoding/json.
func (r *UsageStreamResponse) UnmarshalJSON(data []byte) error {
	if r.ReadJSON(data) {
		return nil
	}
	return jsonnum.Unalias[plainUsageStreamResponse, UsageStreamResponse](json.Unmarshal(data, (*plainUsageStreamResponse)(r)))
}

// ReadJSON decodes data into r, which must be the zero UsageStreamResponse,
// when data is laid out as encoding/json writes one (its newline aside):
// keys in field order, the omitempty ones present or not, no whitespace,
// strings that need no unescaping, numbers that fit their fields. It
// reports whether it did; when it did not, r is untouched. An answer
// without errors or a stream error allocates nothing.
func (r *UsageStreamResponse) ReadJSON(data []byte) bool {
	if r.Lines != 0 || r.UsageCounts != (UsageCounts{}) || r.RetryAfterSec != 0 || r.Errors != nil || r.StreamError != "" {
		return false
	}
	c := jsonnum.NewCursor(data)
	var u UsageStreamResponse
	c.Lit(`{"lines":`)
	u.Lines = c.Int()
	c.Lit(`,"accepted":`)
	u.Accepted = c.Int()
	c.Lit(`,"duplicates":`)
	u.Duplicates = c.Int()
	c.Lit(`,"rejected":`)
	u.Rejected = c.Int()
	c.Lit(`,"dropped":`)
	u.Dropped = c.Int()
	if c.Is(`,"throttled":`) {
		u.Throttled = c.Int()
	}
	if c.Is(`,"retryAfterSec":`) {
		u.RetryAfterSec = c.Float()
	}
	if c.Is(`,"errors":[`) {
		u.Errors = make([]LineError, 0, bytes.Count(data, []byte(`{"line":`)))
		if !c.Is("]") {
			for {
				var le LineError
				c.Lit(`{"line":`)
				le.Line = c.Int()
				c.Lit(`,"error":{"status":`)
				le.Error.Status = c.Int()
				c.Lit(`,"message":`)
				le.Error.Message = string(c.Str())
				if c.Is(`,"retryAfterSec":`) {
					le.Error.RetryAfterSec = c.Float()
				}
				c.Lit("}}")
				if !c.OK() {
					return false
				}
				u.Errors = append(u.Errors, le)
				if !c.Is(",") {
					break
				}
			}
			c.Lit("]")
		}
	}
	if c.Is(`,"streamError":`) {
		u.StreamError = string(c.Str())
	}
	c.Lit("}")
	if !c.Done() {
		return false
	}
	*r = u
	return true
}
