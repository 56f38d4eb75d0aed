package api

// A KeyArena hands out substrings of shared chunks, so a key is only right
// if no later key, chunk or stream ever writes over it. These tests hold
// every key the arena handed out to the end and then compare each with the
// bytes it was made from.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// heldKey is a key as handed out and the bytes it must still equal.
type heldKey struct{ got, want string }

func checkHeld(t *testing.T, held []heldKey) {
	t.Helper()
	for i, k := range held {
		if k.got != k.want {
			t.Fatalf("key %d of %d reads %q, made from %q", i, len(held), k.got, k.want)
		}
	}
}

// TestKeyArenaDerivedIsDerivedKey: the arena and DerivedKey spell a derived
// key one way, on every row of TestDerivedKey's table, fresh or mid-chunk.
func TestKeyArenaDerivedIsDerivedKey(t *testing.T) {
	var a KeyArena
	for round := 0; round < 2; round++ {
		for _, tc := range derivedKeyCases {
			if got := a.Derived(tc.streamKey, tc.line); got != tc.want || got != DerivedKey(tc.streamKey, tc.line) {
				t.Errorf("Derived(%q, %d) = %q, want %q", tc.streamKey, tc.line, got, tc.want)
			}
		}
	}
}

// TestKeyArenaKeysStayIntact rolls the arena over several chunks, with a key
// longer than a chunk in the middle, from one reused input buffer: the keys
// must not alias their input or each other.
func TestKeyArenaKeysStayIntact(t *testing.T) {
	var a KeyArena
	var held []heldKey
	var buf []byte
	for i := 0; i < 6*keyChunkBytes/16; i++ {
		buf = fmt.Appendf(buf[:0], "key-%d-%s", i, strings.Repeat("x", i%24))
		if i == 700 {
			buf = bytes.Repeat([]byte{'L'}, 3*keyChunkBytes)
		}
		held = append(held, heldKey{a.key(buf), string(buf)})
		held = append(held, heldKey{a.Derived("stream", i), DerivedKey("stream", i)})
	}
	held = append(held, heldKey{a.key(nil), ""})
	checkHeld(t, held)

	if allocs := testing.AllocsPerRun(100, func() { _ = a.key(buf[:12]) }); allocs != 0 {
		t.Errorf("a key that fits the chunk allocates %.0f objects, want 0", allocs)
	}
}

// keyedStream encodes n records whose explicit keys name the stream they
// belong to, and returns the keys in stream order.
func keyedStream(t *testing.T, wire WireFormat, stream string, n int) ([]byte, []string) {
	t.Helper()
	records := make([]UsageRecord, n)
	keys := make([]string, n)
	for i := range records {
		keys[i] = fmt.Sprintf("%s/key-%d%s", stream, i, strings.Repeat("k", i%40))
		records[i] = frameRecord(fmt.Sprintf("t-%d", i%5), 128, i%3, keys[i])
	}
	body, err := EncodeUsageStream(wire, records)
	if err != nil {
		t.Fatal(err)
	}
	return body, keys
}

// readKeys drains one stream through a pooled source and releases it,
// holding every key it yielded.
func readKeys(wire WireFormat, body []byte, want []string) ([]heldKey, error) {
	src := NewRecordSource(wire, bytes.NewReader(body), DefaultMaxBodyBytes, DefaultMaxStreamLines)
	defer src.Release()
	var held []heldKey
	for {
		pos, rec, rej, ok := src.Next()
		if !ok {
			break
		}
		if rej != nil {
			return nil, fmt.Errorf("record %d refused: %s", pos, rej.Message)
		}
		held = append(held, heldKey{rec.Key, want[pos-1]})
	}
	if len(held) != len(want) {
		return nil, fmt.Errorf("%d records read, %d written", len(held), len(want))
	}
	return held, nil
}

// TestRecordSourceKeysOutliveTheStream: keys a decoder carved stay intact
// after their source is released and serves the next streams, sequentially
// and — under -race — with streams decoded concurrently.
func TestRecordSourceKeysOutliveTheStream(t *testing.T) {
	for _, wire := range []WireFormat{WireNDJSON, WireFrames} {
		t.Run(wire.String(), func(t *testing.T) {
			var held []heldKey
			for s := 0; s < 3; s++ {
				body, want := keyedStream(t, wire, fmt.Sprintf("stream-%d", s), 400)
				h, err := readKeys(wire, body, want)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, h...)
			}
			checkHeld(t, held)
		})
	}

	t.Run("concurrent", func(t *testing.T) {
		const streams = 8
		held := make([][]heldKey, streams)
		errs := make([]error, streams)
		var wg sync.WaitGroup
		for g := range held {
			wire := []WireFormat{WireNDJSON, WireFrames}[g%2]
			body, want := keyedStream(t, wire, fmt.Sprintf("stream-%d", g), 300)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 3 {
					h, err := readKeys(wire, body, want)
					if err != nil {
						errs[g] = err
						return
					}
					held[g] = append(held[g], h...)
				}
			}()
		}
		wg.Wait()
		for g, h := range held {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			checkHeld(t, h)
		}
	})
}
