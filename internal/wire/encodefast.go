package wire

// Hand-rolled JSON codec for the hot request/response paths. Frame
// payloads stay plain JSON, but the common metadata/lock frames do not pay
// encoding/json's reflection and allocation: AppendRequest/AppendResponse
// emit into a caller-reused buffer and Decoder reads frames in place,
// reusing its scratch Record and the target struct's strings.
//
// The codec is deliberately partial. It handles exactly the fields the
// hot ops (create/stat/update/remove/lock/unlock/renew/batchless ping)
// use; anything else — ship entries, snapshots, cluster maps, volume
// registries, floats, escaped strings, non-compact framing — makes it
// bail (return false) and the caller falls back to encoding/json, which
// is authoritative: the fast path only ever has to be right about the
// JSON it produces itself.
//
// Every encoded document the fast path produces is byte-identical to
// json.Marshal's output for the same value (same field order, same
// omitempty behavior, same RFC 3339 time rendering), which is both the
// interop guarantee and the property the tests pin.

import (
	"math"
	"strconv"
	"time"

	"anufs/internal/sharedisk"
)

// zeroRFC3339 is how encoding/json renders the zero time.Time.
const zeroRFC3339 = "0001-01-01T00:00:00Z"

// AppendRequest appends r's JSON encoding to dst and reports whether the
// fast path could represent it. On false the returned slice is dst
// truncated back to its original length and the caller must fall back to
// encoding/json.
//
//anufs:hotpath
func AppendRequest(dst []byte, r *Request) ([]byte, bool) {
	orig := len(dst)
	if len(r.Entries) != 0 || r.Snap != nil || r.SnapSeq != 0 || r.Map != nil ||
		r.Speed != 0 || len(r.FileSets) != 0 || r.Volume != "" || r.MaxFileSets != 0 ||
		r.OpRate != 0 || r.Weight != 0 || r.Policy != "" || len(r.Volumes) != 0 ||
		r.VolumesVersion != 0 || len(r.Batch) != 0 {
		return dst, false
	}
	ok := true
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	// op carries no omitempty: always emitted, like encoding/json.
	if dst, ok = appendKeyString(dst, `,"op":`, string(r.Op)); !ok {
		return dst[:orig], false
	}
	if r.FileSet != "" {
		if dst, ok = appendKeyString(dst, `,"fileset":`, r.FileSet); !ok {
			return dst[:orig], false
		}
	}
	if r.Path != "" {
		if dst, ok = appendKeyString(dst, `,"path":`, r.Path); !ok {
			return dst[:orig], false
		}
	}
	if r.Record != nil {
		if dst, ok = appendRecord(dst, `,"record":`, r.Record); !ok {
			return dst[:orig], false
		}
	}
	if r.Client != 0 {
		dst = append(dst, `,"client":`...)
		dst = strconv.AppendUint(dst, r.Client, 10)
	}
	if r.Exclusive {
		dst = append(dst, `,"exclusive":true`...)
	}
	if r.Prefix != "" {
		if dst, ok = appendKeyString(dst, `,"prefix":`, r.Prefix); !ok {
			return dst[:orig], false
		}
	}
	if r.Trace != 0 {
		dst = append(dst, `,"trace":`...)
		dst = strconv.AppendUint(dst, r.Trace, 10)
	}
	if r.Parent != 0 {
		dst = append(dst, `,"parent":`...)
		dst = strconv.AppendUint(dst, r.Parent, 10)
	}
	if r.Count != 0 {
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendInt(dst, int64(r.Count), 10)
	}
	if r.Epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, r.Epoch, 10)
	}
	if r.Addr != "" {
		if dst, ok = appendKeyString(dst, `,"addr":`, r.Addr); !ok {
			return dst[:orig], false
		}
	}
	if r.Daemon != 0 {
		dst = append(dst, `,"daemon":`...)
		dst = strconv.AppendInt(dst, int64(r.Daemon), 10)
	}
	if r.JournalDir != "" {
		if dst, ok = appendKeyString(dst, `,"journal_dir":`, r.JournalDir); !ok {
			return dst[:orig], false
		}
	}
	if r.Durable {
		dst = append(dst, `,"durable":true`...)
	}
	dst = append(dst, '}')
	return dst, true
}

// AppendResponse appends r's JSON encoding to dst and reports whether the
// fast path could represent it; see AppendRequest.
//
//anufs:hotpath
func AppendResponse(dst []byte, r *Response) ([]byte, bool) {
	orig := len(dst)
	if len(r.Paths) != 0 || len(r.Stats) != 0 || r.Mapping != nil || r.Journal != nil ||
		len(r.Spans) != 0 || len(r.Tuner) != 0 || r.Wire != nil || len(r.Conns) != 0 ||
		r.Closed != nil || r.ClosedConns != 0 || r.Map != nil || r.Node != "" ||
		r.Now != 0 || len(r.Results) != 0 || len(r.Volumes) != 0 || r.VolumesVersion != 0 {
		return dst, false
	}
	ok := true
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	if r.Err != "" {
		if dst, ok = appendKeyString(dst, `,"err":`, r.Err); !ok {
			return dst[:orig], false
		}
	}
	if r.Code != "" {
		if dst, ok = appendKeyString(dst, `,"code":`, r.Code); !ok {
			return dst[:orig], false
		}
	}
	if r.Record != nil {
		if dst, ok = appendRecord(dst, `,"record":`, r.Record); !ok {
			return dst[:orig], false
		}
	}
	if r.Owner != 0 {
		dst = append(dst, `,"owner":`...)
		dst = strconv.AppendInt(dst, int64(r.Owner), 10)
	}
	if r.Client != 0 {
		dst = append(dst, `,"client":`...)
		dst = strconv.AppendUint(dst, r.Client, 10)
	}
	if r.FileSet != "" {
		if dst, ok = appendKeyString(dst, `,"fileset":`, r.FileSet); !ok {
			return dst[:orig], false
		}
	}
	if r.Rel != "" {
		if dst, ok = appendKeyString(dst, `,"rel":`, r.Rel); !ok {
			return dst[:orig], false
		}
	}
	if r.Trace != 0 {
		dst = append(dst, `,"trace":`...)
		dst = strconv.AppendUint(dst, r.Trace, 10)
	}
	if r.AckSeq != 0 {
		dst = append(dst, `,"ack_seq":`...)
		dst = strconv.AppendUint(dst, r.AckSeq, 10)
	}
	if r.Epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, r.Epoch, 10)
	}
	dst = append(dst, '}')
	return dst, true
}

// appendKeyString appends `<key>"<s>"`, bailing on any byte encoding/json
// would escape (control chars, quote, backslash, the HTML set, and
// anything non-ASCII — the latter keeps  /  handling out of the
// hot path entirely).
func appendKeyString(dst []byte, key, s string) ([]byte, bool) {
	dst = append(dst, key...)
	return appendString(dst, s)
}

func appendString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	dst = append(dst, '"')
	return dst, true
}

// appendRecord emits a sharedisk.Record exactly as encoding/json does:
// every field, names unmangled (the struct carries no tags), time in
// RFC 3339 with nanoseconds.
func appendRecord(dst []byte, key string, rec *sharedisk.Record) ([]byte, bool) {
	if y := rec.ModTime.Year(); y < 0 || y >= 10000 {
		return dst, false // json cannot encode these years either
	}
	dst = append(dst, key...)
	dst = append(dst, `{"Size":`...)
	dst = strconv.AppendInt(dst, rec.Size, 10)
	dst = append(dst, `,"Mode":`...)
	dst = strconv.AppendUint(dst, uint64(rec.Mode), 10)
	dst = append(dst, `,"ModTime":"`...)
	dst = rec.ModTime.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","Owner":`...)
	var ok bool
	if dst, ok = appendString(dst, rec.Owner); !ok {
		return dst, false
	}
	dst = append(dst, '}')
	return dst, true
}

// Decoder decodes request/response frames on the fast path. The zero
// value is ready. A Decoder is not safe for concurrent use, and a Record
// it decodes points into its scratch: it is only valid until the next
// Decode call, so a caller that retains the struct (hands it to another
// goroutine, buffers it) must copy the Record first.
type Decoder struct {
	rec sharedisk.Record
}

// Request field bits for zeroing unseen fields after a decode.
const (
	reqID = 1 << iota
	reqOp
	reqFileSet
	reqPath
	reqRecord
	reqClient
	reqExclusive
	reqPrefix
	reqTrace
	reqParent
	reqCount
	reqEpoch
	reqAddr
	reqDaemon
	reqJournalDir
	reqDurable
)

// DecodeRequest decodes one compact JSON request into r, reusing r's
// strings and the Decoder's scratch Record, and reports whether the fast
// path could handle the payload. On false, r is garbage and the caller
// must reset it and fall back to encoding/json. Fields absent from the
// payload are zeroed, so a reused r never leaks a previous frame's
// fields.
//
//anufs:hotpath
func (d *Decoder) DecodeRequest(data []byte, r *Request) bool {
	s := jsonScan{b: data}
	if !s.eat('{') {
		return false
	}
	var seen uint32
	ok := true
	for !s.eat('}') {
		if seen != 0 && !s.eat(',') {
			return false
		}
		key, kok := s.str()
		if !kok || !s.eat(':') {
			return false
		}
		switch string(key) {
		case "id":
			r.ID, ok = s.u64()
			seen |= reqID
		case "op":
			var b []byte
			if b, ok = s.str(); ok {
				setString((*string)(&r.Op), b)
			}
			seen |= reqOp
		case "fileset":
			var b []byte
			if b, ok = s.str(); ok {
				setString(&r.FileSet, b)
			}
			seen |= reqFileSet
		case "path":
			var b []byte
			if b, ok = s.str(); ok {
				setString(&r.Path, b)
			}
			seen |= reqPath
		case "record":
			ok = decodeRecord(&s, &d.rec)
			r.Record = &d.rec
			seen |= reqRecord
		case "client":
			r.Client, ok = s.u64()
			seen |= reqClient
		case "exclusive":
			r.Exclusive, ok = s.boolean()
			seen |= reqExclusive
		case "prefix":
			var b []byte
			if b, ok = s.str(); ok {
				setString(&r.Prefix, b)
			}
			seen |= reqPrefix
		case "trace":
			r.Trace, ok = s.u64()
			seen |= reqTrace
		case "parent":
			r.Parent, ok = s.u64()
			seen |= reqParent
		case "count":
			var v int64
			v, ok = s.i64()
			r.Count = int(v)
			seen |= reqCount
		case "epoch":
			r.Epoch, ok = s.u64()
			seen |= reqEpoch
		case "addr":
			var b []byte
			if b, ok = s.str(); ok {
				setString(&r.Addr, b)
			}
			seen |= reqAddr
		case "daemon":
			var v int64
			v, ok = s.i64()
			r.Daemon = int(v)
			seen |= reqDaemon
		case "journal_dir":
			var b []byte
			if b, ok = s.str(); ok {
				setString(&r.JournalDir, b)
			}
			seen |= reqJournalDir
		case "durable":
			r.Durable, ok = s.boolean()
			seen |= reqDurable
		default:
			return false // a slow-path field (or foreign key): fall back
		}
		if !ok {
			return false
		}
	}
	if !s.end() {
		return false
	}
	if seen&reqID == 0 {
		r.ID = 0
	}
	if seen&reqOp == 0 {
		r.Op = ""
	}
	if seen&reqFileSet == 0 {
		r.FileSet = ""
	}
	if seen&reqPath == 0 {
		r.Path = ""
	}
	if seen&reqRecord == 0 {
		r.Record = nil
	}
	if seen&reqClient == 0 {
		r.Client = 0
	}
	if seen&reqExclusive == 0 {
		r.Exclusive = false
	}
	if seen&reqPrefix == 0 {
		r.Prefix = ""
	}
	if seen&reqTrace == 0 {
		r.Trace = 0
	}
	if seen&reqParent == 0 {
		r.Parent = 0
	}
	if seen&reqCount == 0 {
		r.Count = 0
	}
	if seen&reqEpoch == 0 {
		r.Epoch = 0
	}
	if seen&reqAddr == 0 {
		r.Addr = ""
	}
	if seen&reqDaemon == 0 {
		r.Daemon = 0
	}
	if seen&reqJournalDir == 0 {
		r.JournalDir = ""
	}
	if seen&reqDurable == 0 {
		r.Durable = false
	}
	// Slow-path fields can never arrive through the fast decoder; zero
	// them so a reused struct sheds whatever a fallback decode left.
	r.Entries = nil
	r.Snap = nil
	r.SnapSeq = 0
	r.Map = nil
	r.Speed = 0
	r.FileSets = nil
	r.Volume = ""
	r.MaxFileSets = 0
	r.OpRate = 0
	r.Weight = 0
	r.Policy = ""
	r.Volumes = nil
	r.VolumesVersion = 0
	r.Batch = nil
	return true
}

// Response field bits.
const (
	respID = 1 << iota
	respErr
	respCode
	respRecord
	respOwner
	respClient
	respFileSet
	respRel
	respTrace
	respAckSeq
	respEpoch
)

// DecodeResponse is DecodeRequest's response-side twin.
//
//anufs:hotpath
func (d *Decoder) DecodeResponse(data []byte, r *Response) bool {
	s := jsonScan{b: data}
	if !s.eat('{') {
		return false
	}
	var seen uint32
	ok := true
	for !s.eat('}') {
		if seen != 0 && !s.eat(',') {
			return false
		}
		key, kok := s.str()
		if !kok || !s.eat(':') {
			return false
		}
		switch string(key) {
		case "id":
			r.ID, ok = s.u64()
			seen |= respID
		case "err":
			var b []byte
			if b, ok = s.str(); ok {
				setString(&r.Err, b)
			}
			seen |= respErr
		case "code":
			var b []byte
			if b, ok = s.str(); ok {
				setString(&r.Code, b)
			}
			seen |= respCode
		case "record":
			ok = decodeRecord(&s, &d.rec)
			r.Record = &d.rec
			seen |= respRecord
		case "owner":
			var v int64
			v, ok = s.i64()
			r.Owner = int(v)
			seen |= respOwner
		case "client":
			r.Client, ok = s.u64()
			seen |= respClient
		case "fileset":
			var b []byte
			if b, ok = s.str(); ok {
				setString(&r.FileSet, b)
			}
			seen |= respFileSet
		case "rel":
			var b []byte
			if b, ok = s.str(); ok {
				setString(&r.Rel, b)
			}
			seen |= respRel
		case "trace":
			r.Trace, ok = s.u64()
			seen |= respTrace
		case "ack_seq":
			r.AckSeq, ok = s.u64()
			seen |= respAckSeq
		case "epoch":
			r.Epoch, ok = s.u64()
			seen |= respEpoch
		default:
			return false
		}
		if !ok {
			return false
		}
	}
	if !s.end() {
		return false
	}
	if seen&respID == 0 {
		r.ID = 0
	}
	if seen&respErr == 0 {
		r.Err = ""
	}
	if seen&respCode == 0 {
		r.Code = ""
	}
	if seen&respRecord == 0 {
		r.Record = nil
	}
	if seen&respOwner == 0 {
		r.Owner = 0
	}
	if seen&respClient == 0 {
		r.Client = 0
	}
	if seen&respFileSet == 0 {
		r.FileSet = ""
	}
	if seen&respRel == 0 {
		r.Rel = ""
	}
	if seen&respTrace == 0 {
		r.Trace = 0
	}
	if seen&respAckSeq == 0 {
		r.AckSeq = 0
	}
	if seen&respEpoch == 0 {
		r.Epoch = 0
	}
	r.Paths = nil
	r.Stats = nil
	r.Mapping = nil
	r.Journal = nil
	r.Spans = nil
	r.Tuner = nil
	r.Wire = nil
	r.Conns = nil
	r.Closed = nil
	r.ClosedConns = 0
	r.Map = nil
	r.Node = ""
	r.Now = 0
	r.Results = nil
	r.Volumes = nil
	r.VolumesVersion = 0
	return true
}

// decodeRecord parses a Record object, zeroing unseen fields.
func decodeRecord(s *jsonScan, rec *sharedisk.Record) bool {
	if !s.eat('{') {
		return false
	}
	var seen uint8
	ok := true
	for !s.eat('}') {
		if seen != 0 && !s.eat(',') {
			return false
		}
		key, kok := s.str()
		if !kok || !s.eat(':') {
			return false
		}
		switch string(key) {
		case "Size":
			rec.Size, ok = s.i64()
			seen |= 1
		case "Mode":
			var v uint64
			v, ok = s.u64()
			if v > math.MaxUint32 {
				return false
			}
			rec.Mode = uint32(v)
			seen |= 2
		case "ModTime":
			var b []byte
			if b, ok = s.str(); ok {
				rec.ModTime, ok = parseTimeRFC3339(b)
			}
			seen |= 4
		case "Owner":
			var b []byte
			if b, ok = s.str(); ok {
				setString(&rec.Owner, b)
			}
			seen |= 8
		default:
			return false
		}
		if !ok {
			return false
		}
	}
	if seen&1 == 0 {
		rec.Size = 0
	}
	if seen&2 == 0 {
		rec.Mode = 0
	}
	if seen&4 == 0 {
		rec.ModTime = time.Time{}
	}
	if seen&8 == 0 {
		rec.Owner = ""
	}
	return true
}

// parseTimeRFC3339 parses the times our encoder emits: RFC 3339 UTC
// ("...Z"), nanosecond fraction with trailing zeros trimmed. Offsets
// other than Z bail — rebuilding a FixedZone would allocate, and no
// encoder in the fleet produces one.
func parseTimeRFC3339(b []byte) (time.Time, bool) {
	if string(b) == zeroRFC3339 {
		return time.Time{}, true
	}
	// "2006-01-02T15:04:05Z" is the 20-byte minimum.
	if len(b) < 20 || b[len(b)-1] != 'Z' {
		return time.Time{}, false
	}
	if b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' {
		return time.Time{}, false
	}
	year, ok1 := atoiFixed(b[0:4])
	month, ok2 := atoiFixed(b[5:7])
	day, ok3 := atoiFixed(b[8:10])
	hour, ok4 := atoiFixed(b[11:13])
	min, ok5 := atoiFixed(b[14:16])
	sec, ok6 := atoiFixed(b[17:19])
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 {
		return time.Time{}, false
	}
	if month < 1 || month > 12 || day < 1 || day > 31 || hour > 23 || min > 59 || sec > 59 {
		return time.Time{}, false
	}
	ns := 0
	if frac := b[19 : len(b)-1]; len(frac) > 0 {
		if frac[0] != '.' || len(frac) > 10 {
			return time.Time{}, false
		}
		scale := 1_000_000_000
		for _, c := range frac[1:] {
			if c < '0' || c > '9' {
				return time.Time{}, false
			}
			ns = ns*10 + int(c-'0')
			scale /= 10
		}
		ns *= scale
	}
	return time.Date(year, time.Month(month), day, hour, min, sec, ns, time.UTC), true
}

// atoiFixed parses a fixed-width run of ASCII digits.
func atoiFixed(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// setString assigns only when the value changed, so a struct decoded
// into repeatedly (one per connection) converges to zero allocations
// for its string fields.
func setString(dst *string, b []byte) {
	if *dst != string(b) {
		*dst = string(b)
	}
}

// jsonScan is a cursor over one compact JSON document (the shape
// json.Marshal and AppendRequest/AppendResponse emit: no interior
// whitespace). Anything else makes a method report false and the decode
// falls back to encoding/json.
type jsonScan struct {
	b []byte
	i int
}

// eat consumes c if it is next.
func (s *jsonScan) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only trailing whitespace remains (json.Encoder
// output, for one, ends in '\n').
func (s *jsonScan) end() bool {
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// str parses a string with no escapes, returning the raw interior bytes.
func (s *jsonScan) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		if c == '"' {
			b := s.b[start:s.i]
			s.i++
			return b, true
		}
		if c == '\\' || c < 0x20 {
			return nil, false // escapes and raw controls: fall back
		}
	}
	return nil, false
}

// u64 parses a non-negative integer. A following '.', 'e', or 'E' is not
// consumed; the caller's delimiter check rejects it, sending floats to
// the fallback.
func (s *jsonScan) u64() (uint64, bool) {
	start := s.i
	var n uint64
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, s.i > start
}

// i64 parses an integer with an optional leading minus.
func (s *jsonScan) i64() (int64, bool) {
	neg := s.eat('-')
	n, ok := s.u64()
	if !ok || n > math.MaxInt64 {
		return 0, false
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// boolean parses true/false.
func (s *jsonScan) boolean() (bool, bool) {
	if s.i+4 <= len(s.b) && string(s.b[s.i:s.i+4]) == "true" {
		s.i += 4
		return true, true
	}
	if s.i+5 <= len(s.b) && string(s.b[s.i:s.i+5]) == "false" {
		s.i += 5
		return false, true
	}
	return false, false
}
