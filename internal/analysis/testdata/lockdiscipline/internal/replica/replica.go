// Package replica is a fixture for the lockdiscipline analyzer's scope:
// the shipper's hand-off lock guards a copy, never a ship.
package replica

import (
	"sync"

	"anufs/internal/journal"
	"anufs/internal/wire"
)

type shipper struct {
	offMu  sync.Mutex
	queued [][]byte
}

func (s *shipper) copyUnderOfferLock(payload []byte) {
	s.offMu.Lock()
	s.queued = append(s.queued, append([]byte(nil), payload...))
	s.offMu.Unlock()
}

func (s *shipper) shipUnderOfferLock(c *wire.Client) error {
	s.offMu.Lock()
	defer s.offMu.Unlock()
	return c.Call() // want `wire\.Client\.Call network round-trip while holding s\.offMu`
}

func (s *shipper) appendUnderOfferLock(j *journal.Journal) error {
	s.offMu.Lock()
	defer s.offMu.Unlock()
	return j.LogFlush("vol00") // want `journal commit \(LogFlush waits for group-commit fsync\) while holding s\.offMu`
}
