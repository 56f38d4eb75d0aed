// Package fsyncorder is golden input for the fsyncorder analyzer.
package fsyncorder

import (
	"os"
	"sync"
)

type store struct {
	mu      sync.Mutex
	f       *os.File
	pending []byte
}

// appendRec is the WAL append.
//
//litmus:appends
func (s *store) appendRec(b []byte) error {
	_, err := s.f.Write(b)
	return err
}

// syncWAL makes prior appends durable.
//
//litmus:syncs
func (s *store) syncWAL() error {
	return s.f.Sync()
}

func (s *store) badDirect() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want `fsync while holding s\.mu`
}

func (s *store) badViaHelper() error {
	s.mu.Lock()
	err := s.syncWAL() // want `fsync while holding s\.mu`
	s.mu.Unlock()
	return err
}

func (s *store) goodGroupCommit(b []byte) error {
	s.mu.Lock()
	err := s.appendRec(b)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.syncWAL()
}

func (s *store) deliberateColdPath() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//litmus:sync-under-lock-ok rotation-style cold path, held rarely
	return s.f.Sync()
}

func (s *store) badOrder(b []byte) error {
	if err := s.syncWAL(); err != nil { // want `sync before the WAL append`
		return err
	}
	return s.appendRec(b)
}

// checkpointOld syncs state older than what it appends.
//
//litmus:sync-order-ok
func checkpointOld(s *store, b []byte) error {
	if err := s.syncWAL(); err != nil {
		return err
	}
	return s.appendRec(b)
}

// frame queues a record on the pending buffer; nothing reaches the file.
//
//litmus:buffers
func (s *store) frame(b []byte) {
	s.pending = append(s.pending, b...)
}

// flush writes the pending buffer: the append the ordering check looks for.
//
//litmus:appends
func (s *store) flush() error {
	_, err := s.f.Write(s.pending)
	s.pending = s.pending[:0]
	return err
}

// sealAndSync flushes what is pending itself before it syncs, like close.
//
//litmus:appends
//litmus:syncs
func (s *store) sealAndSync() error {
	if err := s.flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

func (s *store) goodBatch(recs [][]byte) error {
	s.mu.Lock()
	for _, b := range recs {
		s.frame(b)
	}
	s.mu.Unlock()
	if err := s.flush(); err != nil {
		return err
	}
	return s.syncWAL()
}

// badBatch is the regression the group write must never slide into: the
// batch syncs the shard, but the records it framed are still in memory.
func (s *store) badBatch(recs [][]byte) error {
	s.mu.Lock()
	for _, b := range recs {
		s.frame(b)
	}
	s.mu.Unlock()
	return s.syncWAL() // want `sync of buffered WAL records without a preceding flush in badBatch`
}

func (s *store) badBatchLateFlush(b []byte) error {
	s.frame(b)
	if err := s.syncWAL(); err != nil { // want `sync before the WAL append` `sync of buffered WAL records without a preceding flush`
		return err
	}
	return s.flush()
}

func (s *store) badNeverFlushes(b []byte) {
	s.frame(b) // want `badNeverFlushes buffers WAL records and never flushes them`
}

func (s *store) goodSeal(b []byte) error {
	s.frame(b)
	return s.sealAndSync()
}

// step frames on behalf of its caller, who owes the flush.
//
//litmus:buffers
func (s *store) step(b []byte) {
	s.frame(b)
}

func (s *store) refusedFrame(b []byte) {
	//litmus:flush-ok the store is closed; the frame is refused and nothing is pending
	s.frame(b)
}
