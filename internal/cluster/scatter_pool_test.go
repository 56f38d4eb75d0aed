package cluster

import (
	"context"
	"testing"

	"repro/internal/api"
)

// TestReleaseCapsWhatThePoolKeeps: a released scatter keeps an owner
// batch's buffers up to maxPooledBody and gives a larger one up, and holds
// nothing of the stream it served.
func TestReleaseCapsWhatThePoolKeeps(t *testing.T) {
	c, err := NewClient([]Node{{Name: "a", URL: "http://a"}, {Name: "b", URL: "http://b"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := c.newUsageForward(context.Background(), api.WireFrames, "stream", 0)
	f.batches[0] = ownerBatch{body: make([]byte, 0, maxPooledBody+1), lines: make([]int, 0, 4096)}
	f.batches[1] = ownerBatch{body: make([]byte, 0, maxPooledBody), lines: make([]int, 0, 4096)}
	f.resp.Lines = 1
	f.release()
	if b := f.batches[0]; b.body != nil || b.lines != nil {
		t.Errorf("an oversized batch was kept: cap %d body, %d lines", cap(b.body), cap(b.lines))
	}
	if b := f.batches[1]; cap(b.body) != maxPooledBody || cap(b.lines) != 4096 {
		t.Errorf("a batch at the cap lost its buffers: cap %d body, %d lines", cap(b.body), cap(b.lines))
	}
	if f.c != nil || f.ctx != nil || f.streamKey != "" || f.failed != nil || f.resp.Lines != 0 {
		t.Errorf("a released scatter still holds its stream: %+v", f)
	}
}
