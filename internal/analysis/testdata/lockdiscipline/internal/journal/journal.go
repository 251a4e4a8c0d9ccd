// Package journal is a stub dependency for the lockdiscipline fixture, and
// a fixture for the analyzer's scope: the commit signal is swapped under its
// lock, a waiter is never answered under one.
package journal

import "sync"

// Journal stands in for the real write-ahead log.
type Journal struct{}

// LogFlush appends a flush record and waits for the group commit.
func (j *Journal) LogFlush(fileSet string) error { return nil }

// DurableSeq is a cheap read, not a commit.
func (j *Journal) DurableSeq() uint64 { return 0 }

type committer struct {
	sigMu     sync.Mutex
	commitSig chan struct{}
	done      chan error
}

func (c *committer) swapSignalUnderLock() {
	c.sigMu.Lock()
	close(c.commitSig)
	c.commitSig = make(chan struct{})
	c.sigMu.Unlock()
}

func (c *committer) ackUnderLock() {
	c.sigMu.Lock()
	defer c.sigMu.Unlock()
	c.done <- nil // want `channel send while holding c\.sigMu`
}
