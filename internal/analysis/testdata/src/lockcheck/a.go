// Package lockcheck is golden input for the lockcheck analyzer.
package lockcheck

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
	//litmus:unguarded closed once before the counter is shared
	done chan struct{}
}

func (c *counter) good() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *counter) bad() int {
	return c.n // want `c\.n is guarded by c\.mu`
}

func (c *counter) badAfterUnlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.n++ // want `c\.n is guarded by c\.mu`
}

func (c *counter) errPath(fail bool) error {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
		return errFailed
	}
	c.n = 1
	c.mu.Unlock()
	return nil
}

func (c *counter) lockedOnOneBranchOnly(cond bool) {
	if cond {
		c.mu.Lock()
	}
	c.n++ // want `c\.n is guarded by c\.mu`
	if cond {
		c.mu.Unlock()
	}
}

func (c *counter) inGoroutine() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `c\.n is guarded by c\.mu`
	}()
}

// applyLocked is called with c.mu held.
//
//litmus:guarded-by caller
func (c *counter) applyLocked() {
	c.n++
}

func fresh() *counter {
	c := &counter{}
	c.n = 1 // freshly constructed: not yet shared
	return c
}

func (c *counter) annotatedSite() {
	//litmus:guarded-by recovery owns the counter exclusively here
	c.n = 0
}

func (c *counter) unguardedField() {
	close(c.done)
}

type plain struct { // no mu field: not a monitored struct
	n int
}

func (p *plain) bump() {
	p.n++
}

// A lock-free value type kept in a guarded field (the ledger's keyWindow in
// shard): its methods need no annotation of their own, because every call
// goes through the field and the field needs the lock.
type owner struct {
	mu sync.Mutex
	p  plain
}

func (o *owner) goodThroughField() {
	o.mu.Lock()
	o.p.bump()
	o.mu.Unlock()
}

func (o *owner) badThroughField() {
	o.p.bump() // want `o\.p is guarded by o\.mu`
}

var errFailed = errorString("failed")

type errorString string

func (e errorString) Error() string { return string(e) }
