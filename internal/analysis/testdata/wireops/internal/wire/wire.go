// Package wire is a fixture for the wireops analyzer: every Op must be
// registered in both the client encode and server dispatch tables.
package wire

// Op enumerates protocol operations.
type Op string

const (
	// OpPing is registered on both ends: clean.
	OpPing Op = "ping"
	// OpOrphanServer is dispatched by the server but no client sends it.
	OpOrphanServer Op = "orphan-server" // want `OpOrphanServer is never sent by a client Request literal`
	// OpOrphanClient is sent by a client but the server never answers it.
	OpOrphanClient Op = "orphan-client" // want `OpOrphanClient is not dispatched by any server switch`
	// OpVestigial is reserved for a future epoch bump; the allow records that.
	OpVestigial Op = "vestigial" //anufs:allow wireops reserved opcode for the next protocol rev; neither end speaks it yet
	// Fleet ops: the forward clause in serve must name every one of
	// these, and the fleet package's Fleet method must case them all.
	OpMap      Op = "map"
	OpJoin     Op = "join"
	OpTakeover Op = "takeover"
	// Volume-administration ops ride the same fleet forward path.
	OpVolumeCreate Op = "volume-create"
	OpVolumeList   Op = "volume-list"
)

// Request is one client frame.
type Request struct {
	Op      Op
	FileSet string
}

// Client is the protocol client.
type Client struct{}

func (c *Client) call(req Request) Request { return req }

// Ping sends OpPing.
func (c *Client) Ping() { c.call(Request{Op: OpPing}) }

// Orphan sends the op the server never answers.
func (c *Client) Orphan() { c.call(Request{Op: OpOrphanClient}) }

// Map, Join, and Takeover send the fleet ops.
func (c *Client) Map() (Request, Request, Request) {
	return c.call(Request{Op: OpMap}), c.call(Request{Op: OpJoin}), c.call(Request{Op: OpTakeover})
}

// VolumeCreate and VolumeList send the volume-administration ops.
func (c *Client) VolumeCreate() (Request, Request) {
	return c.call(Request{Op: OpVolumeCreate}), c.call(Request{Op: OpVolumeList})
}

func serve(req Request) int {
	switch req.Op {
	case OpPing:
		return 1
	case OpOrphanServer:
		return 2
	case OpMap, OpJoin, OpVolumeCreate: // want `fleet forward clause misses OpTakeover, OpVolumeList`
		return 3
	case OpTakeover, OpVolumeList: // dispatched, but outside the forward clause
		return 4
	}
	return 0
}
