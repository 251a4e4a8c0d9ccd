package fleet

import "anufs/internal/wire"

// Caller is the transport the router works over: anything that can carry
// one wire request/response exchange. *wire.Client satisfies it (one
// connection), and so does the sdk's Pool of them — both surface errors
// through wire.ResponseError's typed vocabulary.
type Caller interface {
	Call(req wire.Request) (wire.Response, error)
	Close() error
}

// Map-fetch counter names (the router's map cache).
const (
	CtrMapFetches  = "fleet_map_fetches"
	CtrMapPeerHits = "fleet_map_peer_hits"
)
