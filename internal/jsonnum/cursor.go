package jsonnum

import (
	"encoding/json"
	"reflect"
	"strconv"
)

// Cursor reads one JSON value front to back for a hand-written reader that
// accepts a single fixed layout — the bytes one of our writers emits. Each
// method reads one token or fails the cursor, and a failed cursor reads
// nothing more, so a reader checks Done once, at the end, and hands
// anything it did not accept to encoding/json.
type Cursor struct {
	b      []byte
	i      int
	failed bool
}

// NewCursor returns a cursor at the head of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Lit reads the bytes s, or fails.
func (c *Cursor) Lit(s string) {
	if !c.Is(s) {
		c.failed = true
	}
}

// Is reads the bytes s when they come next and reports whether they did; it
// never fails the cursor, so a reader tries an optional key with it.
func (c *Cursor) Is(s string) bool {
	rest := c.b[c.i:]
	if c.failed || len(rest) < len(s) || string(rest[:len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// Int reads an integer — no fraction, no exponent — that fits an int, as
// encoding/json stores one into an int field; anything else fails.
func (c *Cursor) Int() int {
	return int(c.integer(0))
}

// Int64 reads an integer that fits an int64, as Int does an int.
func (c *Cursor) Int64() int64 {
	return c.integer(64)
}

func (c *Cursor) integer(bitSize int) int64 {
	num, integer := c.number()
	if !integer {
		c.failed = true
		return 0
	}
	// The conversion does not allocate: strconv keeps no reference to its
	// argument.
	v, err := strconv.ParseInt(string(num), 10, bitSize)
	if err != nil {
		c.failed = true
		return 0
	}
	return v
}

// Float reads a number to the bits encoding/json stores into a float64
// field (ParseFloat); one strconv refuses (1e999) fails.
func (c *Cursor) Float() float64 {
	num, _ := c.number()
	if c.failed {
		return 0
	}
	v, ok := ParseFloat(num)
	if !ok {
		c.failed = true
		return 0
	}
	return v
}

func (c *Cursor) number() (num []byte, integer bool) {
	if c.failed {
		return nil, false
	}
	num, rest, integer, ok := SplitNumber(c.b[c.i:])
	if !ok {
		c.failed = true
		return nil, false
	}
	c.i = len(c.b) - len(rest)
	return num, integer
}

// Str reads a string whose bytes are its own decoding (SplitString) and
// returns what lies between its quotes, a subslice of the cursor's input
// that starts at Pos()+1 as read before the call. An escape fails.
func (c *Cursor) Str() []byte {
	if c.failed {
		return nil
	}
	s, rest, ok := SplitString(c.b[c.i:])
	if !ok {
		c.failed = true
		return nil
	}
	c.i = len(c.b) - len(rest)
	return s
}

// Pos is the offset of the next unread byte.
func (c *Cursor) Pos() int { return c.i }

// OK reports whether every read so far succeeded.
func (c *Cursor) OK() bool { return !c.failed }

// Done reports whether every read succeeded and nothing is left unread.
func (c *Cursor) Done() bool { return !c.failed && c.i == len(c.b) }

// Unalias makes the *json.UnmarshalTypeError that decoding into Alias — a
// method-free copy of T that T's UnmarshalJSON falls back to — reports read
// as decoding into T would: T's name for the struct, T for the type.
func Unalias[Alias, T any](err error) error {
	if e, ok := err.(*json.UnmarshalTypeError); ok {
		alias := reflect.TypeFor[Alias]()
		if e.Struct == alias.Name() {
			e.Struct = reflect.TypeFor[T]().Name()
		}
		if e.Type == alias {
			e.Type = reflect.TypeFor[T]()
		}
	}
	return err
}
