package wire

// The body codec: how a Request or a Response becomes a frame's payload.
// There is one encoding and every op takes it — a stat, a durable batch, a
// snapshot ship and a volume-list reply alike.
//
// A request body is the op's code (one byte, from the Ops table) followed
// by fields; a response body is fields only. A field is one tag byte and a
// value whose encoding the tag fixes:
//
//	uint     uvarint
//	int      zig-zag varint
//	flag     no value: the tag's presence is true
//	float    8 bytes, IEEE 754 bits, little-endian
//	string   uvarint length + bytes
//	bytes    uvarint length + bytes (raw: no base64)
//	record   size int, mode uint, mtime seconds int, mtime nanoseconds uint,
//	         owner string (an instant; it decodes in UTC)
//	strings  uvarint count + that many strings
//	items    uvarint count + that many BatchItems: op code, file set string,
//	         path string, 0 or 1 + record, trace uint
//	results  uvarint count + that many BatchResults: err string, 0 or 1 + record
//	entries  uvarint count + that many ShipEntries: seq uint, trace uint,
//	         payload bytes
//	json     uvarint length + encoding/json of the field — the operator
//	         collections anufsctl and the trace stitcher read, which no
//	         data-path op carries
//
// Fields appear in ascending tag order and a zero-valued field is left out;
// a decoder refuses an unknown, repeated or out-of-order tag. Tag numbers
// and op codes are append-only (a new field takes the next number, a
// retired one is never reused); the nested shapes (record, item, result,
// entry) are positional, so changing one means bumping frameVersion. The
// two const blocks below are the layout table: tag number, field, type.

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"time"

	"anufs/internal/binenc"
	"anufs/internal/sharedisk"
)

// Request field tags: the field the constant names, its tag number, and
// (in the comment) its encoding. Append-only: never renumber, never reuse.
const (
	_              = 1  // retired: the request ID, which the frame tag carries
	reqFileSet     = 2  // string
	reqPath        = 3  // string
	reqRecord      = 4  // record
	reqClient      = 5  // uint
	reqExclusive   = 6  // flag
	reqPrefix      = 7  // string
	reqTrace       = 8  // uint
	reqParent      = 9  // uint
	reqCount       = 10 // int
	reqEntries     = 11 // entries
	reqSnap        = 12 // bytes
	reqSnapSeq     = 13 // uint
	reqEpoch       = 14 // uint
	reqAddr        = 15 // string
	reqDaemon      = 16 // int
	reqMap         = 17 // bytes
	reqSpeed       = 18 // float
	reqJournalDir  = 19 // string
	reqFileSets    = 20 // strings
	reqVolume      = 21 // string
	reqMaxFileSets = 22 // int
	reqOpRate      = 23 // float
	reqWeight      = 24 // float
	reqPolicy      = 25 // string
	_              = 26 // retired: the volume list a map push carried, which the map carries now
	_              = 27 // retired: the volume list's own version, which the map epoch is now
	reqBatch       = 28 // items
	reqDurable     = 29 // flag
	reqReset       = 30 // flag
)

// Response field tags, likewise.
const (
	_               = 1  // retired: the response ID, which the frame tag carries
	respErr         = 2  // string
	respCode        = 3  // string
	respRecord      = 4  // record
	respPaths       = 5  // strings
	respOwner       = 6  // int
	respClient      = 7  // uint
	respStats       = 8  // json
	respFileSet     = 9  // string
	respRel         = 10 // string
	respMapping     = 11 // bytes
	respJournal     = 12 // json
	respTrace       = 13 // uint
	respSpans       = 14 // json
	respTuner       = 15 // json
	respWire        = 16 // json
	respConns       = 17 // json
	respClosed      = 18 // json
	respClosedConns = 19 // int
	respAckSeq      = 20 // uint
	respEpoch       = 21 // uint
	respMap         = 22 // bytes
	respNode        = 23 // string
	respNow         = 24 // int
	respResults     = 25 // results
	respVolumes     = 26 // json
	_               = 27 // retired: the volume list's own version, which the map epoch is now
)

// MaxShipEntries caps the entries of one OpShip request. The shipper cuts
// its batches to it and the decoder refuses more, so an entry count is
// bounded before anything is allocated for it.
const MaxShipEntries = 512

// AppendRequest appends r's body to dst. It reports false — and what it
// appended is then not a body — only for a request that has no encoding: an
// op (the request's or a batch item's) the Ops table does not hold.
//
// TestEncodeDecodeAllocFree holds it to zero allocations.
func AppendRequest(dst []byte, r *Request) ([]byte, bool) {
	code := opsByName[r.Op].Code
	ok := code != 0
	dst = append(dst, code)
	dst = putString(dst, reqFileSet, r.FileSet)
	dst = putString(dst, reqPath, r.Path)
	dst = putRecord(dst, reqRecord, r.Record)
	dst = putUint(dst, reqClient, r.Client)
	dst = putFlag(dst, reqExclusive, r.Exclusive)
	dst = putString(dst, reqPrefix, r.Prefix)
	dst = putUint(dst, reqTrace, r.Trace)
	dst = putUint(dst, reqParent, r.Parent)
	dst = putInt(dst, reqCount, int64(r.Count))
	if len(r.Entries) != 0 {
		dst = binary.AppendUvarint(append(dst, reqEntries), uint64(len(r.Entries)))
		for i := range r.Entries {
			e := &r.Entries[i]
			dst = binary.AppendUvarint(dst, e.Seq)
			dst = binary.AppendUvarint(dst, e.Trace)
			dst = binenc.AppendString(dst, e.Payload)
		}
	}
	dst = putString(dst, reqSnap, r.Snap)
	dst = putUint(dst, reqSnapSeq, r.SnapSeq)
	dst = putUint(dst, reqEpoch, r.Epoch)
	dst = putString(dst, reqAddr, r.Addr)
	dst = putInt(dst, reqDaemon, int64(r.Daemon))
	dst = putString(dst, reqMap, r.Map)
	dst = putFloat(dst, reqSpeed, r.Speed)
	dst = putString(dst, reqJournalDir, r.JournalDir)
	dst = putStrings(dst, reqFileSets, r.FileSets)
	dst = putString(dst, reqVolume, r.Volume)
	dst = putInt(dst, reqMaxFileSets, int64(r.MaxFileSets))
	dst = putFloat(dst, reqOpRate, r.OpRate)
	dst = putFloat(dst, reqWeight, r.Weight)
	dst = putString(dst, reqPolicy, r.Policy)
	if len(r.Batch) != 0 {
		dst = binary.AppendUvarint(append(dst, reqBatch), uint64(len(r.Batch)))
		for i := range r.Batch {
			it := &r.Batch[i]
			code = opsByName[it.Op].Code
			ok = ok && code != 0
			dst = append(dst, code)
			dst = binenc.AppendString(dst, it.FileSet)
			dst = binenc.AppendString(dst, it.Path)
			dst = appendOptRecord(dst, it.Record)
			dst = binary.AppendUvarint(dst, it.Trace)
		}
	}
	dst = putFlag(dst, reqDurable, r.Durable)
	dst = putFlag(dst, reqReset, r.Reset)
	return dst, ok
}

// AppendResponse appends r's body to dst. It reports false only when
// encoding/json refuses one of the operator collections (a NaN in a stats
// float); every response a data-path op produces encodes.
//
// TestEncodeDecodeAllocFree holds it to zero allocations.
func AppendResponse(dst []byte, r *Response) ([]byte, bool) {
	ok := true
	dst = putString(dst, respErr, r.Err)
	dst = putString(dst, respCode, r.Code)
	dst = putRecord(dst, respRecord, r.Record)
	dst = putStrings(dst, respPaths, r.Paths)
	dst = putInt(dst, respOwner, int64(r.Owner))
	dst = putUint(dst, respClient, r.Client)
	dst = putJSON(dst, &ok, respStats, len(r.Stats), r.Stats)
	dst = putString(dst, respFileSet, r.FileSet)
	dst = putString(dst, respRel, r.Rel)
	dst = putString(dst, respMapping, r.Mapping)
	dst = putJSON(dst, &ok, respJournal, len(r.Journal), r.Journal)
	dst = putUint(dst, respTrace, r.Trace)
	dst = putJSON(dst, &ok, respSpans, len(r.Spans), r.Spans)
	dst = putJSON(dst, &ok, respTuner, len(r.Tuner), r.Tuner)
	dst = putJSON(dst, &ok, respWire, len(r.Wire), r.Wire)
	dst = putJSON(dst, &ok, respConns, len(r.Conns), r.Conns)
	if r.Closed != nil {
		dst = putJSON(dst, &ok, respClosed, 1, r.Closed)
	}
	dst = putInt(dst, respClosedConns, r.ClosedConns)
	dst = putUint(dst, respAckSeq, r.AckSeq)
	dst = putUint(dst, respEpoch, r.Epoch)
	dst = putString(dst, respMap, r.Map)
	dst = putString(dst, respNode, r.Node)
	dst = putInt(dst, respNow, r.Now)
	if len(r.Results) != 0 {
		dst = binary.AppendUvarint(append(dst, respResults), uint64(len(r.Results)))
		for i := range r.Results {
			dst = binenc.AppendString(dst, r.Results[i].Err)
			dst = appendOptRecord(dst, r.Results[i].Record)
		}
	}
	dst = putJSON(dst, &ok, respVolumes, len(r.Volumes), r.Volumes)
	return dst, ok
}

func putUint(dst []byte, tag byte, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return binary.AppendUvarint(append(dst, tag), v)
}

func putInt(dst []byte, tag byte, v int64) []byte {
	if v == 0 {
		return dst
	}
	return binary.AppendVarint(append(dst, tag), v)
}

func putFlag(dst []byte, tag byte, v bool) []byte {
	if !v {
		return dst
	}
	return append(dst, tag)
}

func putFloat(dst []byte, tag byte, v float64) []byte {
	if v == 0 {
		return dst
	}
	return binary.LittleEndian.AppendUint64(append(dst, tag), math.Float64bits(v))
}

// putString appends a string or a raw byte-string field.
func putString[S ~string | ~[]byte](dst []byte, tag byte, s S) []byte {
	if len(s) == 0 {
		return dst
	}
	return binenc.AppendString(append(dst, tag), s)
}

func putStrings(dst []byte, tag byte, ss []string) []byte {
	if len(ss) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(append(dst, tag), uint64(len(ss)))
	for _, s := range ss {
		dst = binenc.AppendString(dst, s)
	}
	return dst
}

func putRecord(dst []byte, tag byte, rec *sharedisk.Record) []byte {
	if rec == nil {
		return dst
	}
	return appendRecord(append(dst, tag), rec)
}

// putJSON appends one operator collection of n elements as a
// length-prefixed encoding/json document, clearing *ok if json refuses it.
// It is generic so that v is boxed only past the n == 0 return: an empty
// collection, which is all a data-path frame ever holds, costs nothing.
func putJSON[T any](dst []byte, ok *bool, tag byte, n int, v T) []byte {
	if n == 0 {
		return dst
	}
	doc, err := json.Marshal(v)
	*ok = *ok && err == nil
	return binenc.AppendString(append(dst, tag), doc)
}

// appendRecord appends a record's four fields. ModTime travels as seconds
// and nanoseconds since the Unix epoch, which every time.Time has — the
// zero time and years past 2262 included, unlike UnixNano.
func appendRecord(dst []byte, rec *sharedisk.Record) []byte {
	dst = binary.AppendVarint(dst, rec.Size)
	dst = binary.AppendUvarint(dst, uint64(rec.Mode))
	dst = binary.AppendVarint(dst, rec.ModTime.Unix())
	dst = binary.AppendUvarint(dst, uint64(rec.ModTime.Nanosecond()))
	return binenc.AppendString(dst, rec.Owner)
}

func appendOptRecord(dst []byte, rec *sharedisk.Record) []byte {
	if rec == nil {
		return append(dst, 0)
	}
	return appendRecord(append(dst, 1), rec)
}

// Decoder decodes request and response bodies. It holds nothing: every
// decoded field lives in the target struct, whose own memory (strings,
// slices, Records) is reused when it has any. So a caller that decodes
// into one struct again and again allocates nothing in steady state, and a
// caller that hands each decoded struct to another goroutine decodes into
// a fresh one and shares nothing. The zero value is ready.
type Decoder struct{}

// DecodeRequest decodes one request body into r and reports whether the
// body was well formed; on false r's contents are unspecified. Every field
// the body does not carry is zero afterwards, whatever r held before. r
// must not share a Record or a slice with a value still in use: they are
// overwritten in place.
//
// TestEncodeDecodeAllocFree holds it to zero allocations.
func (*Decoder) DecodeRequest(data []byte, r *Request) bool {
	old := *r
	*r = Request{}
	c := binenc.Cursor{B: data}
	if r.Op = opsByCode[c.U8()].Op; r.Op == "" {
		return false
	}
	var last byte
	for c.Len() > 0 {
		tag := c.U8()
		if tag <= last {
			return false
		}
		last = tag
		switch tag {
		case reqFileSet:
			r.FileSet = reuseString(old.FileSet, c.Bytes())
		case reqPath:
			r.Path = reuseString(old.Path, c.Bytes())
		case reqRecord:
			r.Record = decodeRecord(&c, old.Record)
		case reqClient:
			r.Client = c.Uvarint()
		case reqExclusive:
			r.Exclusive = true
		case reqPrefix:
			r.Prefix = reuseString(old.Prefix, c.Bytes())
		case reqTrace:
			r.Trace = c.Uvarint()
		case reqParent:
			r.Parent = c.Uvarint()
		case reqCount:
			r.Count = int(c.Varint())
		case reqEntries:
			n := c.Count()
			if n > MaxShipEntries {
				return false
			}
			r.Entries = old.Entries[:0]
			for i := 0; i < n && !c.Bad; i++ {
				r.Entries = grow(r.Entries)
				r.Entries[i].Seq, r.Entries[i].Trace = c.Uvarint(), c.Uvarint()
				r.Entries[i].Payload = append(r.Entries[i].Payload[:0], c.Bytes()...)
			}
		case reqSnap:
			r.Snap = append(old.Snap[:0], c.Bytes()...)
		case reqSnapSeq:
			r.SnapSeq = c.Uvarint()
		case reqEpoch:
			r.Epoch = c.Uvarint()
		case reqAddr:
			r.Addr = reuseString(old.Addr, c.Bytes())
		case reqDaemon:
			r.Daemon = int(c.Varint())
		case reqMap:
			r.Map = append(old.Map[:0], c.Bytes()...)
		case reqSpeed:
			r.Speed = decodeFloat(&c)
		case reqJournalDir:
			r.JournalDir = reuseString(old.JournalDir, c.Bytes())
		case reqFileSets:
			r.FileSets = decodeStrings(&c, old.FileSets)
		case reqVolume:
			r.Volume = reuseString(old.Volume, c.Bytes())
		case reqMaxFileSets:
			r.MaxFileSets = int(c.Varint())
		case reqOpRate:
			r.OpRate = decodeFloat(&c)
		case reqWeight:
			r.Weight = decodeFloat(&c)
		case reqPolicy:
			r.Policy = reuseString(old.Policy, c.Bytes())
		case reqBatch:
			n := c.Count()
			if n > MaxBatchItems {
				return false
			}
			r.Batch = old.Batch[:0]
			for i := 0; i < n && !c.Bad; i++ {
				r.Batch = grow(r.Batch)
				it := &r.Batch[i]
				if it.Op = opsByCode[c.U8()].Op; it.Op == "" {
					return false
				}
				it.FileSet = reuseString(it.FileSet, c.Bytes())
				it.Path = reuseString(it.Path, c.Bytes())
				it.Record = decodeOptRecord(&c, it.Record)
				it.Trace = c.Uvarint()
			}
		case reqDurable:
			r.Durable = true
		case reqReset:
			r.Reset = true
		default:
			return false
		}
	}
	return !c.Bad
}

// DecodeResponse is DecodeRequest for a response body.
//
// TestEncodeDecodeAllocFree holds it to zero allocations.
func (*Decoder) DecodeResponse(data []byte, r *Response) bool {
	old := *r
	*r = Response{}
	c := binenc.Cursor{B: data}
	var last byte
	for c.Len() > 0 {
		tag := c.U8()
		if tag <= last {
			return false
		}
		last = tag
		var doc any // the operator collection this tag carries, if it is one
		switch tag {
		case respErr:
			r.Err = reuseString(old.Err, c.Bytes())
		case respCode:
			r.Code = reuseString(old.Code, c.Bytes())
		case respRecord:
			r.Record = decodeRecord(&c, old.Record)
		case respPaths:
			r.Paths = decodeStrings(&c, old.Paths)
		case respOwner:
			r.Owner = int(c.Varint())
		case respClient:
			r.Client = c.Uvarint()
		case respStats:
			doc = &r.Stats
		case respFileSet:
			r.FileSet = reuseString(old.FileSet, c.Bytes())
		case respRel:
			r.Rel = reuseString(old.Rel, c.Bytes())
		case respMapping:
			r.Mapping = append(old.Mapping[:0], c.Bytes()...)
		case respJournal:
			doc = &r.Journal
		case respTrace:
			r.Trace = c.Uvarint()
		case respSpans:
			doc = &r.Spans
		case respTuner:
			doc = &r.Tuner
		case respWire:
			doc = &r.Wire
		case respConns:
			doc = &r.Conns
		case respClosed:
			doc = &r.Closed
		case respClosedConns:
			r.ClosedConns = c.Varint()
		case respAckSeq:
			r.AckSeq = c.Uvarint()
		case respEpoch:
			r.Epoch = c.Uvarint()
		case respMap:
			r.Map = append(old.Map[:0], c.Bytes()...)
		case respNode:
			r.Node = reuseString(old.Node, c.Bytes())
		case respNow:
			r.Now = c.Varint()
		case respResults:
			n := c.Count()
			if n > MaxBatchItems {
				return false
			}
			r.Results = old.Results[:0]
			for i := 0; i < n && !c.Bad; i++ {
				r.Results = grow(r.Results)
				res := &r.Results[i]
				res.Err = reuseString(res.Err, c.Bytes())
				res.Record = decodeOptRecord(&c, res.Record)
			}
		case respVolumes:
			doc = &r.Volumes
		default:
			return false
		}
		if doc != nil && !decodeJSON(&c, doc) {
			return false
		}
	}
	return !c.Bad
}

// reuseString returns old when it already spells b, so a struct decoded
// into repeatedly converges to zero allocations for its string fields.
func reuseString(old string, b []byte) string {
	if old != string(b) {
		old = string(b)
	}
	return old
}

// grow extends s by one element, reusing the slot (and whatever memory the
// element in it owns) when s has the capacity.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// decodeJSON decodes one operator collection into doc.
func decodeJSON(c *binenc.Cursor, doc any) bool {
	b := c.Bytes()
	return !c.Bad && json.Unmarshal(b, doc) == nil
}

func decodeFloat(c *binenc.Cursor) float64 {
	b := c.Fixed(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func decodeStrings(c *binenc.Cursor, ss []string) []string {
	n := c.Count()
	ss = ss[:0]
	for i := 0; i < n && !c.Bad; i++ {
		ss = grow(ss)
		ss[i] = reuseString(ss[i], c.Bytes())
	}
	return ss
}

// decodeRecord decodes a record into rec, or into a new one when the
// target had none.
func decodeRecord(c *binenc.Cursor, rec *sharedisk.Record) *sharedisk.Record {
	if rec == nil {
		rec = new(sharedisk.Record)
	}
	rec.Size = c.Varint()
	mode := c.Uvarint()
	sec, nsec := c.Varint(), c.Uvarint()
	if mode > math.MaxUint32 || nsec >= uint64(time.Second) {
		c.Bad = true
	}
	rec.Mode = uint32(mode)
	rec.ModTime = time.Unix(sec, int64(nsec)).UTC()
	rec.Owner = reuseString(rec.Owner, c.Bytes())
	return rec
}

func decodeOptRecord(c *binenc.Cursor, rec *sharedisk.Record) *sharedisk.Record {
	switch c.U8() {
	case 0:
		return nil
	case 1:
		return decodeRecord(c, rec)
	}
	c.Bad = true
	return nil
}
