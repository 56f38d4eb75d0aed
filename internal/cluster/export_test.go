package cluster

import "net/http"

// SetTransport sends everything f asks of its primary through rt, so a test
// can watch or script the follower's side of the wire. It swaps this
// follower's client only (NewClient's shared pool stays as it is) and must
// run before Bootstrap, while nothing else holds f.
func (f *Follower) SetTransport(rt http.RoundTripper) {
	f.client.HTTPClient = &http.Client{Transport: rt}
}

// AckedShards is how many shards s holds a follower's pull position for.
func (s *Source) AckedShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.acked)
}

// SetTransport sends every request c makes of its nodes through rt.
func (c *Client) SetTransport(rt http.RoundTripper) {
	for _, nc := range c.clients {
		nc.HTTPClient = &http.Client{Transport: rt}
	}
}
