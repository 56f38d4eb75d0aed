package cluster

import "net/http"

// SetTransport sends everything f asks of its primary through rt, so a test
// can watch or script the follower's side of the wire. It swaps this
// follower's client only (NewClient's shared pool stays as it is) and must
// run before Bootstrap, while nothing else holds f.
func (f *Follower) SetTransport(rt http.RoundTripper) {
	f.client.HTTPClient = &http.Client{Transport: rt}
}
