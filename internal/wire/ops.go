package wire

// Class says where a request for an op has to be served. Every dispatcher
// that does not serve an op itself decides what to do with it from its
// class alone: the daemon hands the fleet classes to its FleetHandler, the
// gateway forwards, broadcasts or refuses by class, and the standby serves
// ClassStandby only.
type Class uint8

const (
	// ClassOwner ops are addressed to one file set and served by the daemon
	// that owns it; a gateway forwards them by Request.FileSet.
	ClassOwner Class = iota + 1
	// ClassLocal ops are answered by whichever process receives them, from
	// its own state. A gateway answers the few that make sense at a gateway
	// and refuses the rest (per-daemon data: connect to the daemon).
	ClassLocal
	// ClassBroadcast ops change state every daemon keeps a copy of; a
	// gateway applies them on every daemon in the map.
	ClassBroadcast
	// ClassAuthority ops are served by the fleet authority only; a gateway
	// forwards them there.
	ClassAuthority
	// ClassMember ops are the fleet's own daemon-to-daemon traffic. No
	// client sends them and a gateway refuses to relay them.
	ClassMember
	// ClassStandby ops are log shipping, served by a standby receiver and
	// refused everywhere else.
	ClassStandby
	// ClassMap ops read the cluster map; any process that holds one (a fleet
	// member, a gateway) answers from its own copy.
	ClassMap
)

// Fleet reports whether a daemon serves the class through its FleetHandler
// rather than through the wire server's own handlers.
func (c Class) Fleet() bool {
	return c == ClassAuthority || c == ClassMember || c == ClassMap
}

// OpInfo is one row of the op table.
type OpInfo struct {
	Op Op
	// Code is the op's byte in a request body. Codes are append-only: a
	// retired op's code is never reused and no row is ever renumbered.
	Code  byte
	Class Class
	// Gated ops name a single file set and pass the fleet gate (wrong-owner
	// fencing) before a daemon dispatches them. The namespace P-ops resolve
	// through the per-daemon mount table and are not gated; a batch gates
	// each file set it touches itself.
	Gated bool
	// Batchable ops may appear as OpBatch items: the single-record metadata
	// ops. Everything else has semantics (locks, namespace, fleet) that do
	// not fold into a batch.
	Batchable bool
}

// Ops is the op table: the one place an op's wire code and routing are
// written down. The codec reads the code; wire.Server, sdk.Gateway,
// fleet.Member and replica.Receiver are each tested against every row, so
// a row without a handler fails `go test`, not a request at runtime.
var Ops = []OpInfo{
	{Op: OpCreateFileSet, Code: 1, Class: ClassOwner, Gated: true},
	{Op: OpCreate, Code: 2, Class: ClassOwner, Gated: true, Batchable: true},
	{Op: OpStat, Code: 3, Class: ClassOwner, Gated: true, Batchable: true},
	{Op: OpUpdate, Code: 4, Class: ClassOwner, Gated: true, Batchable: true},
	{Op: OpRemove, Code: 5, Class: ClassOwner, Gated: true, Batchable: true},
	{Op: OpList, Code: 6, Class: ClassOwner, Gated: true},
	{Op: OpOwner, Code: 7, Class: ClassOwner},
	{Op: OpRegister, Code: 8, Class: ClassLocal},
	{Op: OpLock, Code: 9, Class: ClassOwner, Gated: true},
	{Op: OpUnlock, Code: 10, Class: ClassOwner, Gated: true},
	{Op: OpRenew, Code: 11, Class: ClassLocal},
	{Op: OpStats, Code: 12, Class: ClassLocal},
	{Op: OpMount, Code: 13, Class: ClassBroadcast},
	{Op: OpUnmount, Code: 14, Class: ClassBroadcast},
	{Op: OpResolve, Code: 15, Class: ClassLocal},
	{Op: OpPCreate, Code: 16, Class: ClassOwner},
	{Op: OpPStat, Code: 17, Class: ClassOwner},
	{Op: OpPRemove, Code: 18, Class: ClassOwner},
	{Op: OpMapping, Code: 19, Class: ClassLocal},
	{Op: OpSync, Code: 20, Class: ClassBroadcast},
	{Op: OpTrace, Code: 21, Class: ClassLocal},
	{Op: OpTracePull, Code: 22, Class: ClassLocal},
	{Op: OpTunerLog, Code: 23, Class: ClassLocal},
	{Op: OpShip, Code: 24, Class: ClassStandby},
	{Op: OpShipStatus, Code: 25, Class: ClassStandby},
	{Op: OpMap, Code: 26, Class: ClassMap},
	{Op: OpMapEpoch, Code: 27, Class: ClassMap},
	{Op: OpAdopt, Code: 28, Class: ClassMember},
	{Op: OpHandoff, Code: 29, Class: ClassMember},
	{Op: OpAssign, Code: 30, Class: ClassAuthority},
	{Op: OpRebalance, Code: 31, Class: ClassAuthority},
	{Op: OpJoin, Code: 32, Class: ClassMember},
	{Op: OpLeave, Code: 33, Class: ClassMember},
	{Op: OpHeartbeat, Code: 34, Class: ClassMember},
	{Op: OpTakeover, Code: 35, Class: ClassMember},
	{Op: OpVolumeCreate, Code: 36, Class: ClassAuthority},
	{Op: OpVolumeDelete, Code: 37, Class: ClassAuthority},
	{Op: OpVolumeList, Code: 38, Class: ClassAuthority},
	{Op: OpVolumeSetQuota, Code: 39, Class: ClassAuthority},
	{Op: OpVolumeSetPolicy, Code: 40, Class: ClassAuthority},
	{Op: OpPing, Code: 41, Class: ClassLocal},
	{Op: OpBatch, Code: 42, Class: ClassOwner},
}

// opsByName and opsByCode index the table for the codec and the
// dispatchers. Code 0 is never assigned, so the zero OpInfo means "no row".
var (
	opsByName = func() map[Op]OpInfo {
		m := make(map[Op]OpInfo, len(Ops))
		for _, info := range Ops {
			m[info.Op] = info
		}
		return m
	}()
	opsByCode = func() (t [256]OpInfo) {
		for _, info := range Ops {
			t[info.Code] = info
		}
		return t
	}()
)

// Lookup returns op's row; ok is false for an op the table does not hold.
func Lookup(op Op) (OpInfo, bool) {
	info, ok := opsByName[op]
	return info, ok
}

// BatchableOp reports whether an op may appear as an OpBatch item.
func BatchableOp(op Op) bool { return opsByName[op].Batchable }
