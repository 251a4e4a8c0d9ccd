// Package fleet is a fixture for the wireops fleet-dispatch rule: the
// Fleet method must case every fleet op the wire package defines.
package fleet

import "anufs/internal/wire"

// Member is the fixture fleet handler.
type Member struct{}

// Fleet dispatches fleet ops — but misses OpTakeover and OpVolumeList,
// which the server forwards here all the same.
func (m *Member) Fleet(req wire.Request) int { // want `Fleet dispatch misses OpTakeover, OpVolumeList`
	switch req.Op {
	case wire.OpMap:
		return 1
	case wire.OpJoin:
		return 2
	case wire.OpVolumeCreate:
		return 3
	}
	return 0
}
