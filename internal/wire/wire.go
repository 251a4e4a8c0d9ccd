// Package wire puts the live ANU cluster on the network: one framing
// (tagged binary frames from a connection's first byte, see tagged.go),
// one body codec (length-prefixed binary fields, see codec.go) and one op
// table (Ops: every op's wire code and routing class, see ops.go), carrying
// requests and responses over TCP; one pipelined client (Client) with typed
// methods for every metadata and lock operation, one server loop
// (FrameServer), and the server that fronts a live.Cluster with it.
//
// In the paper's architecture (§2) clients obtain metadata and locks from
// the file servers over the LAN and then go straight to shared disks for
// data; this package is that metadata/lock path. cmd/anufsctl is the
// debugging surface: every op has a subcommand, and -json renders the
// decoded reply.
package wire

import (
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/volume"
)

// Op enumerates protocol operations.
type Op string

// Protocol operations.
const (
	OpCreateFileSet Op = "create-fileset"
	OpCreate        Op = "create"
	OpStat          Op = "stat"
	OpUpdate        Op = "update"
	OpRemove        Op = "remove"
	OpList          Op = "list"
	OpOwner         Op = "owner"
	OpRegister      Op = "register"
	OpLock          Op = "lock"
	OpUnlock        Op = "unlock"
	OpRenew         Op = "renew"
	OpStats         Op = "stats"
	// Namespace operations: the global-path view of the cluster. Mount
	// binds a namespace subtree to a file set; the P-prefixed ops address
	// records by global path and resolve through the mount table
	// server-side (paper §2: a file set is a subtree of the global
	// namespace).
	OpMount   Op = "mount"
	OpUnmount Op = "unmount"
	OpResolve Op = "resolve"
	OpPCreate Op = "pcreate"
	OpPStat   Op = "pstat"
	OpPRemove Op = "premove"
	// OpMapping fetches the replicated routing configuration (paper §5):
	// clients cache it and resolve file-set owners locally.
	OpMapping Op = "mapping"
	// OpSync checkpoints every file set to shared disk — the durability
	// barrier: once it returns without error, all earlier metadata writes
	// are flushed (and journaled, when the daemon runs with -journal-dir).
	OpSync Op = "sync"
	// OpTrace dumps request trace spans: the spans of one trace (Request.
	// Trace set) or the most recent Count spans across all traces.
	OpTrace Op = "trace"
	// OpTracePull is OpTrace's fleet-facing sibling: it returns one trace's
	// spans from this node's live ring AND its slow-trace flight recorder,
	// plus the node's identity and wall clock (Response.Node/Now) so the
	// cross-node stitcher can annotate clock skew. Served by daemons,
	// gateways, and standby receivers.
	OpTracePull Op = "trace-pull"
	// OpTunerLog dumps the most recent Count structured tuner decision
	// events (all retained when Count is 0).
	OpTunerLog Op = "tuner-log"
	// Replication operations, served by standby daemons (internal/replica):
	// OpShip delivers a batch of journal entries (or a full snapshot cut)
	// from the primary; an empty ship is a liveness heartbeat renewing the
	// primary's lease. OpShipStatus asks the standby how far it has durably
	// applied — the sequence-based resume point after a reconnect. Both
	// reply with AckSeq; a non-standby server rejects them.
	OpShip       Op = "ship"
	OpShipStatus Op = "ship-status"
	// Fleet operations (internal/fleet): OpMap fetches the encoded
	// epoch-numbered cluster map; OpMapEpoch fetches just the epoch (cheap
	// staleness probe). OpAdopt delivers a donated file set's image to its
	// new owner during a handoff; OpHandoff tells a donor daemon to donate a
	// file set to another daemon; OpAssign pins a file set to a daemon and
	// OpRebalance recomputes the whole assignment — both are authority-only.
	OpMap       Op = "map"
	OpMapEpoch  Op = "map-epoch"
	OpAdopt     Op = "adopt"
	OpHandoff   Op = "handoff"
	OpAssign    Op = "assign"
	OpRebalance Op = "rebalance"
	// Fleet membership operations (authority-only except OpTakeover).
	// OpJoin registers a daemon with the authority at runtime — no fleet
	// restart; the reply carries the new map. OpLeave gracefully
	// decommissions a daemon: the authority hands its file sets off to the
	// remaining daemons first. OpHeartbeat renews a member's liveness lease
	// at the authority (and doubles as the cheap epoch probe: the reply
	// carries the authority's current epoch). OpTakeover is the failover op
	// the authority sends to a file set's NEW owner after declaring the old
	// one dead: the recipient replays the victim's journal tail from shared
	// disk before adopting, so acked writes survive the victim's kill -9.
	OpJoin      Op = "join"
	OpLeave     Op = "leave"
	OpHeartbeat Op = "heartbeat"
	OpTakeover  Op = "takeover"
	// Volume (multi-tenant) operations — authority-only, forwarded through
	// the fleet dispatch like OpAssign. OpVolumeCreate registers a tenant;
	// OpVolumeDelete removes an empty one; OpVolumeList returns every
	// volume's config plus the registry version; OpVolumeSetQuota updates a
	// tenant's file-set/op-rate quota and WFQ weight; OpVolumeSetPolicy
	// flips its placement policy between spread and pack. Every mutation
	// bumps the cluster-map epoch so the new registry rides the existing
	// publish/adopt pipeline to all members.
	OpVolumeCreate    Op = "volume-create"
	OpVolumeDelete    Op = "volume-delete"
	OpVolumeList      Op = "volume-list"
	OpVolumeSetQuota  Op = "volume-set-quota"
	OpVolumeSetPolicy Op = "volume-set-policy"
	// OpPing is the no-op liveness probe connection pools use for health
	// checks; OpBatch applies many small metadata writes in one frame — the
	// server folds each file set's items into a single owner-queue task
	// (live.Cluster.Batch), so a batch pays one queue wait and, with
	// Request.Durable, one journal group commit instead of one per item.
	OpPing  Op = "ping"
	OpBatch Op = "batch"
)

// MaxBatchItems caps one OpBatch request — enough to amortize the
// round-trip and the owner-queue hop, small enough that one batch cannot
// monopolize a server's queue.
const MaxBatchItems = 1024

// BatchItem is one operation inside an OpBatch request. FileSet may be
// empty when the enclosing Request.FileSet names it (the common case: a
// client-side batcher coalesces per file set).
type BatchItem struct {
	Op      Op                `json:"op"`
	FileSet string            `json:"fileset,omitempty"`
	Path    string            `json:"path,omitempty"`
	Record  *sharedisk.Record `json:"record,omitempty"`
	// Trace is the folded-in op's own trace ID when the client minted one
	// before coalescing: the server emits a link span tying it to the
	// enclosing batch's trace so neither side of the fold loses the story.
	Trace uint64 `json:"trace,omitempty"`
}

// BatchResult is the per-item outcome of an OpBatch, index-aligned with
// the request's items. Record answers OpStat items.
type BatchResult struct {
	Err    string            `json:"err,omitempty"`
	Record *sharedisk.Record `json:"record,omitempty"`
}

// ShipEntry is one replicated journal entry: the primary's sequence and the
// raw entry payload. Trace, when non-zero, is
// the trace ID of the request that appended the entry, so the standby's
// apply/ack spans join the originating request's fleet timeline.
type ShipEntry struct {
	Seq     uint64 `json:"seq"`
	Payload []byte `json:"payload"`
	Trace   uint64 `json:"trace,omitempty"`
}

// Request is one client frame. The JSON tags are for rendering a decoded
// frame (anufsctl -json); the wire encoding is codec.go's.
type Request struct {
	ID      uint64            `json:"id"`
	Op      Op                `json:"op"`
	FileSet string            `json:"fileset,omitempty"`
	Path    string            `json:"path,omitempty"`
	Record  *sharedisk.Record `json:"record,omitempty"`
	// Client is the lock-session ID for lock/unlock/renew.
	Client uint64 `json:"client,omitempty"`
	// Exclusive selects the lock mode for OpLock.
	Exclusive bool `json:"exclusive,omitempty"`
	// Prefix is the mount prefix for namespace operations; Path carries the
	// global path for the P-prefixed ops.
	Prefix string `json:"prefix,omitempty"`
	// Trace selects the trace to dump for OpTrace/OpTracePull. For every
	// other op it is the caller-supplied trace ID; the server mints one
	// when zero and echoes it in Response.Trace. Parent is the span ID of
	// the sender's enclosing span (the distributed trace context's second
	// half): the receiving hop parents its own spans under it.
	Trace  uint64 `json:"trace,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// Count bounds how many entries OpTrace/OpTunerLog return (0 = all
	// retained).
	Count int `json:"count,omitempty"`
	// Entries carries replicated journal entries for OpShip (empty = pure
	// heartbeat). Snap/SnapSeq instead carry a full encoded store cut when
	// the standby has fallen behind the primary's compaction horizon — or,
	// with Reset, when a new primary incarnation replaces whatever the
	// standby holds, a suffix past SnapSeq included.
	Entries []ShipEntry `json:"entries,omitempty"`
	Snap    []byte      `json:"snap,omitempty"`
	SnapSeq uint64      `json:"snap_seq,omitempty"`
	Reset   bool        `json:"reset,omitempty"`
	// Fleet fields. Epoch is the cluster-map epoch the sender acted under
	// (OpAdopt/OpHandoff). Addr is the recipient daemon's address for
	// OpHandoff. Daemon is the target daemon ID for OpAssign. Map carries an
	// encoded cluster map (placement.ClusterMap) inline on OpAdopt/OpHandoff
	// so the receiving daemon converges to the new epoch in the same frame
	// that needs it — no window where the recipient rejects its own adoption
	// as wrong-owner. Snap is reused by OpAdopt for the donated image.
	Epoch  uint64 `json:"epoch,omitempty"`
	Addr   string `json:"addr,omitempty"`
	Daemon int    `json:"daemon,omitempty"`
	Map    []byte `json:"map,omitempty"`
	// Membership fields. Speed is the joining daemon's relative speed
	// (OpJoin/OpHeartbeat); JournalDir is its journal directory on the
	// shared disk — what a surviving daemon replays when this daemon dies
	// (OpJoin/OpHeartbeat report it, OpTakeover carries the victim's).
	// FileSets lists the file sets one OpTakeover moves to the recipient.
	Speed      float64  `json:"speed,omitempty"`
	JournalDir string   `json:"journal_dir,omitempty"`
	FileSets   []string `json:"filesets,omitempty"`
	// Volume fields. Volume names the tenant for the OpVolume* ops;
	// MaxFileSets/OpRate/Weight carry OpVolumeSetQuota's limits and Policy
	// carries OpVolumeSetPolicy's choice. Volumes/VolumesVersion piggyback
	// the authority's registry snapshot on OpAdopt map pushes so members
	// learn quota and weight changes on the same frame as the epoch that
	// carries them.
	Volume         string        `json:"volume,omitempty"`
	MaxFileSets    int           `json:"max_filesets,omitempty"`
	OpRate         float64       `json:"op_rate,omitempty"`
	Weight         float64       `json:"weight,omitempty"`
	Policy         string        `json:"policy,omitempty"`
	Volumes        []volume.Info `json:"volumes,omitempty"`
	VolumesVersion uint64        `json:"volumes_version,omitempty"`
	// Batch carries the items of an OpBatch; Durable asks the server to
	// checkpoint each touched file set after applying the batch, so the
	// whole batch rides one journal group commit before it is acked.
	Batch   []BatchItem `json:"batch,omitempty"`
	Durable bool        `json:"durable,omitempty"`
}

// ConnStat is the per-connection request/error accounting included in
// OpStats replies — the detail the server previously dropped on the floor
// when a connection sent malformed or failing requests.
type ConnStat struct {
	Remote    string `json:"remote"`
	Requests  int64  `json:"requests"`
	Errors    int64  `json:"errors"`
	Slow      int64  `json:"slow"`
	BadFrames int64  `json:"bad_frames"`
}

// ServerStat mirrors live.ServerStats for the stats reply.
type ServerStat struct {
	ID        int     `json:"id"`
	Speed     float64 `json:"speed"`
	ShareFrac float64 `json:"share_frac"`
	Served    int64   `json:"served"`
	Owned     int     `json:"owned"`
}

// Response is one server frame.
type Response struct {
	ID  uint64 `json:"id"`
	Err string `json:"err,omitempty"`
	// Code is a machine-readable classification of Err (ErrorCode) for the
	// errors client control flow keys on — rewording Err must never change
	// a caller's behavior. Empty for errors no client branches on.
	Code   string            `json:"code,omitempty"`
	Record *sharedisk.Record `json:"record,omitempty"`
	Paths  []string          `json:"paths,omitempty"`
	Owner  int               `json:"owner,omitempty"`
	Client uint64            `json:"client,omitempty"`
	Stats  []ServerStat      `json:"stats,omitempty"`
	// FileSet and Rel answer OpResolve.
	FileSet string `json:"fileset,omitempty"`
	Rel     string `json:"rel,omitempty"`
	// Mapping answers OpMapping.
	Mapping []byte `json:"mapping,omitempty"`
	// Journal carries the journal counters (records appended, bytes,
	// fsyncs, batch sizes, recovery time, ...) in OpStats replies when the
	// server runs over a durable store; nil otherwise.
	Journal map[string]int64 `json:"journal,omitempty"`
	// Trace echoes the request's trace ID (server-minted when the request
	// carried none) so clients can fetch the request's span timeline later.
	Trace uint64 `json:"trace,omitempty"`
	// Spans answers OpTrace; Tuner answers OpTunerLog.
	Spans []obs.Span       `json:"spans,omitempty"`
	Tuner []obs.TunerEvent `json:"tuner,omitempty"`
	// Wire and Conns carry the wire server's own counters (requests,
	// errors, slow requests, bad frames) and per-connection breakdown in
	// OpStats replies. Closed aggregates the accounting of connections that
	// have since disconnected (their per-connection entries are reaped), so
	// totals survive millions of short-lived connections without growing a
	// map; ClosedConns counts how many connections it folds together.
	Wire        map[string]int64 `json:"wire,omitempty"`
	Conns       []ConnStat       `json:"conns,omitempty"`
	Closed      *ConnStat        `json:"closed,omitempty"`
	ClosedConns int64            `json:"closed_conns,omitempty"`
	// AckSeq answers OpShip/OpShipStatus: the standby's durable sequence.
	AckSeq uint64 `json:"ack_seq,omitempty"`
	// Epoch answers OpMapEpoch/OpAssign/OpRebalance, and rides along every
	// wrong-owner rejection so a stale client knows which epoch it must at
	// least reach before retrying. Map answers OpMap.
	Epoch uint64 `json:"epoch,omitempty"`
	Map   []byte `json:"map,omitempty"`
	// Node and Now answer OpTracePull: the responding process's identity
	// and wall clock (UnixNano) at reply time, feeding the stitcher's
	// per-hop clock-skew estimate.
	Node string `json:"node,omitempty"`
	Now  int64  `json:"now,omitempty"`
	// Results answers OpBatch, index-aligned with Request.Batch.
	Results []BatchResult `json:"results,omitempty"`
	// Volumes answers OpVolumeList (and rides OpMap/OpJoin replies so a
	// member refreshing its map also refreshes tenant configs);
	// VolumesVersion is the registry version the snapshot was cut at.
	Volumes        []volume.Info `json:"volumes,omitempty"`
	VolumesVersion uint64        `json:"volumes_version,omitempty"`
}
