// Package sdk is a fixture for the wireops analyzer's sdk rule: ops sent
// in Request literals without a file set must have a gateway demux case.
package sdk

import "anufs/internal/wire"

func send(req wire.Request) wire.Request { return req }

// route is the gateway demux: it special-cases OpPing only.
func route(req wire.Request) int {
	switch req.Op {
	case wire.OpPing:
		return 1
	}
	return 0
}

// sendsDemuxed emits an op the demux handles: clean.
func sendsDemuxed() { send(wire.Request{Op: wire.OpPing}) }

// sendsUnroutable emits an op with no file set and no demux case: a
// gateway has no way to route it.
func sendsUnroutable() {
	send(wire.Request{Op: wire.OpOrphanServer}) // want `OpOrphanServer is sent without a file set but has no gateway demux case`
}

// sendsWithFileSet rides the default forward-by-owner route: exempt.
func sendsWithFileSet() { send(wire.Request{Op: wire.OpOrphanServer, FileSet: "vol00"}) }

var _ = route
