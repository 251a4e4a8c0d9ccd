package wire

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"anufs/internal/sharedisk"
)

// filler fills Request and Response values at random, field by field
// through reflection, so a field added to either struct is covered the day
// it is added. Slices and maps come out nil or non-empty, never empty: the
// codec leaves a zero-length field out, which is how every handler reads
// one (by len) anyway.
type filler struct {
	rng *rand.Rand
	// inJSON is set below an operator collection, whose strings ride
	// encoding/json and so must be valid UTF-8 to survive (volume and node
	// names are); every other string travels as raw bytes.
	inJSON bool
}

// binaryShapes are the struct types the codec writes itself.
var binaryShapes = map[reflect.Type]bool{
	reflect.TypeOf(Request{}): true, reflect.TypeOf(Response{}): true, reflect.TypeOf(BatchItem{}): true,
	reflect.TypeOf(BatchResult{}): true, reflect.TypeOf(ShipEntry{}): true,
}

var (
	timeType   = reflect.TypeOf(time.Time{})
	opType     = reflect.TypeOf(Op(""))
	recordType = reflect.TypeOf(sharedisk.Record{})
)

// strings the codec must carry untouched: what JSON would have escaped,
// non-ASCII, a NUL, and the empty string.
var awkwardStrings = []string{"", "plain", "quo\"te\\back", "new\nline\ttab", "<&>", "päth/文件", "nul\x00byte", "\xff\xfe not utf-8"}

func (f filler) fill(v reflect.Value) {
	switch {
	case v.Type() == opType:
		v.SetString(string(Ops[f.rng.Intn(len(Ops))].Op))
		return
	case v.Type() == recordType:
		// Record times ride the binary body: any instant must survive.
		rec := sharedisk.Record{Size: f.rng.Int63() - f.rng.Int63(), Mode: f.rng.Uint32(), Owner: f.str()}
		switch f.rng.Intn(4) {
		case 0: // the zero time, which has no UnixNano
		case 1: // past 2262, where UnixNano overflows; past 9999, where JSON gives up
			rec.ModTime = time.Date(2300+f.rng.Intn(20000), 5, 6, 7, 8, 9, f.rng.Intn(1e9), time.UTC)
		case 2: // before the epoch
			rec.ModTime = time.Unix(-f.rng.Int63n(1<<40), f.rng.Int63n(1e9)).UTC()
		default:
			rec.ModTime = time.Unix(f.rng.Int63n(1<<32), f.rng.Int63n(1e9)).UTC()
		}
		v.Set(reflect.ValueOf(rec))
		return
	case v.Type() == timeType:
		// Other times ride encoding/json inside an operator collection.
		v.Set(reflect.ValueOf(time.Unix(f.rng.Int63n(1<<32), f.rng.Int63n(1e9)).UTC()))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(f.rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt(f.rng.Int63() - f.rng.Int63())
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(f.rng.Uint64() >> f.rng.Intn(64))
	case reflect.Float64:
		v.SetFloat(f.rng.NormFloat64() * 1e6) // never NaN
	case reflect.String:
		v.SetString(f.str())
	case reflect.Pointer:
		if f.rng.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(v.Elem())
		}
	case reflect.Slice:
		if n := f.rng.Intn(4); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				f.fill(v.Index(i))
			}
		}
	case reflect.Map:
		f.inJSON = true
		if n := f.rng.Intn(3); n > 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < n; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				f.fill(k)
				f.fill(e)
				v.SetMapIndex(k, e)
			}
		}
	case reflect.Struct:
		f.inJSON = f.inJSON || !binaryShapes[v.Type()]
		for i := 0; i < v.NumField(); i++ {
			// Half the fields stay zero, so the omitted form is exercised as
			// much as the present one.
			if f.rng.Intn(2) == 0 {
				f.fill(v.Field(i))
			}
		}
	default:
		panic("filler: unhandled kind " + v.Kind().String() + " in " + v.Type().String())
	}
}

func (f filler) str() string {
	s := awkwardStrings[f.rng.Intn(len(awkwardStrings))]
	if f.inJSON && !utf8.ValidString(s) {
		return "plain"
	}
	return s
}

func (f filler) request(op Op) Request {
	var r Request
	f.fill(reflect.ValueOf(&r).Elem())
	r.Op = op
	for i := range r.Batch {
		if r.Batch[i].Op == "" {
			r.Batch[i].Op = OpStat // the field-skipping may leave an item without an op, which has no encoding
		}
	}
	return r
}

// sameFrame compares two decoded frames as every handler reads them: a
// zero-length slice is the same as a nil one (a reused struct keeps a
// slice's capacity under a length of zero).
func sameFrame(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	nilEmpty(va.Elem())
	nilEmpty(vb.Elem())
	return reflect.DeepEqual(a, b)
}

func nilEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
		for i := 0; i < v.Len(); i++ {
			nilEmpty(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			nilEmpty(v.Elem())
		}
	case reflect.Struct:
		if v.Type() == timeType {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			nilEmpty(v.Field(i))
		}
	}
}

func (f filler) response() Response {
	var r Response
	f.fill(reflect.ValueOf(&r).Elem())
	return r
}

// TestDecodeRequestRoundTrip is the codec's defining property on the
// request side: for every op in the table and a random fill of every
// field, decode(encode(x)) == x — into a fresh struct, and into one that
// still holds a different frame.
func TestDecodeRequestRoundTrip(t *testing.T) {
	f := filler{rng: rand.New(rand.NewSource(18))}
	var dec Decoder
	var reused Request
	for round := 0; round < 40; round++ {
		for _, info := range Ops {
			want := f.request(info.Op)
			body, ok := AppendRequest(nil, &want)
			if !ok {
				t.Fatalf("%s: no encoding for %+v", info.Op, want)
			}
			var fresh Request
			if !dec.DecodeRequest(body, &fresh) {
				t.Fatalf("%s: decoder refused its own encoder's %x", info.Op, body)
			}
			if !sameFrame(&fresh, &want) {
				t.Fatalf("%s: round trip\n want %+v\n got  %+v", info.Op, want, fresh)
			}
			// reused still holds the previous iteration's frame.
			if !dec.DecodeRequest(body, &reused) {
				t.Fatalf("%s: decoder refused %x into a reused struct", info.Op, body)
			}
			if !sameFrame(&reused, &want) {
				t.Fatalf("%s: a reused struct kept part of the previous frame\n want %+v\n got  %+v", info.Op, want, reused)
			}
		}
	}
}

func TestDecodeResponseRoundTrip(t *testing.T) {
	f := filler{rng: rand.New(rand.NewSource(18))}
	var dec Decoder
	var reused Response
	for round := 0; round < 1000; round++ {
		want := f.response()
		body, ok := AppendResponse(nil, &want)
		if !ok {
			t.Fatalf("no encoding for %+v", want)
		}
		var fresh Response
		if !dec.DecodeResponse(body, &fresh) {
			t.Fatalf("decoder refused its own encoder's %x", body)
		}
		if !sameFrame(&fresh, &want) {
			t.Fatalf("round trip\n want %+v\n got  %+v", want, fresh)
		}
		if !dec.DecodeResponse(body, &reused) {
			t.Fatalf("decoder refused %x into a reused struct", body)
		}
		if !sameFrame(&reused, &want) {
			t.Fatalf("a reused struct kept part of the previous frame\n want %+v\n got  %+v", want, reused)
		}
	}
}

// TestRecordTimeIsAnInstant: a ModTime in another zone arrives as the same
// instant, in UTC.
func TestRecordTimeIsAnInstant(t *testing.T) {
	local := time.Date(2026, 10, 1, 9, 30, 0, 5, time.FixedZone("east", 2*3600))
	body, _ := AppendRequest(nil, &Request{Op: OpCreate, Record: &sharedisk.Record{ModTime: local}})
	var got Request
	if !new(Decoder).DecodeRequest(body, &got) {
		t.Fatal("decoder refused the body")
	}
	if mt := got.Record.ModTime; !mt.Equal(local) || mt.Location() != time.UTC {
		t.Fatalf("ModTime = %v, want the instant %v in UTC", mt, local)
	}
}

// TestDecodeZeroesReusedStruct: a struct reused across decodes must not
// leak fields from a previous frame — scalars, strings, slices or Records.
func TestDecodeZeroesReusedStruct(t *testing.T) {
	var dec Decoder
	r := Request{
		Op: OpShip, Entries: []ShipEntry{{Seq: 9, Payload: []byte("p")}}, Snap: []byte("s"),
		Volume: "t", Batch: []BatchItem{{Op: OpCreate, Record: &sharedisk.Record{Size: 1}}}, Speed: 2,
		FileSet: "old", Record: &sharedisk.Record{Size: 3}, FileSets: []string{"a"}, Durable: true, Reset: true,
	}
	ping, _ := AppendRequest(nil, &Request{ID: 42, Op: OpPing})
	if !dec.DecodeRequest(ping, &r) {
		t.Fatal("decoder refused a ping")
	}
	if want := (Request{ID: 42, Op: OpPing}); !reflect.DeepEqual(r, want) {
		t.Errorf("reused request not zeroed: %+v", r)
	}
	resp := Response{
		Err: "old", Record: &sharedisk.Record{Size: 3}, Paths: []string{"/a"}, Map: []byte("m"),
		Results: []BatchResult{{Err: "e"}}, Journal: map[string]int64{"x": 1}, Closed: &ConnStat{Requests: 1},
	}
	ack, _ := AppendResponse(nil, &Response{ID: 42, AckSeq: 7})
	if !dec.DecodeResponse(ack, &resp) {
		t.Fatal("decoder refused an ack")
	}
	if want := (Response{ID: 42, AckSeq: 7}); !reflect.DeepEqual(resp, want) {
		t.Errorf("reused response not zeroed: %+v", resp)
	}
}

// TestDecodeRefusesMalformed: a body is refused — never mis-decoded — when
// a length or a count claims more than the bytes that remain, when a batch
// is over MaxBatchItems or a ship over MaxShipEntries, and when an op code
// or a field tag is not one the tables hold. Each refusal allocates nothing:
// the check comes before the memory.
func TestDecodeRefusesMalformed(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	uv := func(n uint64) []byte { return binary.AppendUvarint(nil, n) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	ping := []byte{opsByName[OpPing].Code}
	pad := make([]byte, 4*MaxBatchItems) // so a count fits the bytes that remain and only the cap refuses it

	reqs := map[string][]byte{
		"empty body":                       nil,
		"op code 0":                        {0},
		"op code past the table":           {byte(len(Ops) + 1)},
		"field tag 0":                      cat(ping, []byte{0}),
		"field tag past the last":          cat(ping, []byte{reqReset + 1}),
		"repeated tag":                     cat(ping, []byte{reqID, 1, reqID, 1}),
		"descending tags":                  cat(ping, []byte{reqTrace, 1, reqID, 1}),
		"truncated uvarint":                cat(ping, []byte{reqID, 0x80}),
		"truncated float":                  cat(ping, []byte{reqSpeed, 1, 2, 3}),
		"record cut short":                 cat(ping, []byte{reqRecord, 2, 3}),
		"record mode over 32 bits":         cat(ping, []byte{reqRecord, 0}, uv(1<<33), []byte{0, 0, 0}),
		"record nanoseconds over a second": cat(ping, []byte{reqRecord, 0, 0, 0}, uv(1e9), []byte{0}),
		"volumes not json":                 cat(ping, []byte{reqVolumes, 1, '{'}),
		"batch over MaxBatchItems":         cat(ping, []byte{reqBatch}, uv(MaxBatchItems+1), pad),
		"ship over MaxShipEntries":         cat(ping, []byte{reqEntries}, uv(MaxShipEntries+1), pad),
		"batch item with op code 0":        cat(ping, []byte{reqBatch, 1, 0, 0, 0, 0, 0}),
		"batch item record flag 2":         cat(ping, []byte{reqBatch, 1, opsByName[OpStat].Code, 0, 0, 2, 0}),
	}
	for _, tag := range []byte{reqFileSet, reqPath, reqPrefix, reqSnap, reqAddr, reqMap, reqJournalDir,
		reqVolume, reqPolicy, reqVolumes, reqEntries, reqFileSets, reqBatch} {
		reqs[fmt.Sprintf("length or count past the end, tag %d", tag)] = cat(ping, []byte{tag}, huge, []byte("xy"))
	}
	var dec Decoder
	var req Request
	for name, body := range reqs {
		if dec.DecodeRequest(body, &req) {
			t.Errorf("request, %s: accepted %x as %+v", name, body, req)
		}
		if n := testing.AllocsPerRun(10, func() { dec.DecodeRequest(body, &req) }); n != 0 && name != "volumes not json" {
			t.Errorf("request, %s: %v allocs to refuse it, want 0", name, n)
		}
	}

	resps := map[string][]byte{
		"field tag 0":                {0},
		"field tag past the last":    {respVolumesVersion + 1},
		"repeated tag":               {respID, 1, respID, 1},
		"results over MaxBatchItems": cat([]byte{respResults}, uv(MaxBatchItems+1), pad),
		"result record flag 2":       {respResults, 1, 0, 2},
	}
	for _, tag := range []byte{respErr, respCode, respPaths, respStats, respFileSet, respRel, respMapping,
		respJournal, respSpans, respTuner, respWire, respConns, respClosed, respMap, respNode, respResults, respVolumes} {
		resps[fmt.Sprintf("length or count past the end, tag %d", tag)] = cat([]byte{tag}, huge, []byte("xy"))
	}
	var resp Response
	for name, body := range resps {
		if dec.DecodeResponse(body, &resp) {
			t.Errorf("response, %s: accepted %x as %+v", name, body, resp)
		}
		if n := testing.AllocsPerRun(10, func() { dec.DecodeResponse(body, &resp) }); n != 0 {
			t.Errorf("response, %s: %v allocs to refuse it, want 0", name, n)
		}
	}
}

// TestEncodeRefusesOnlyWhatHasNoEncoding: the encoders are total over the
// op table; what they refuse is an op with no code and a collection
// encoding/json cannot write.
func TestEncodeRefusesOnlyWhatHasNoEncoding(t *testing.T) {
	for name, req := range map[string]Request{
		"no op":                          {},
		"op not in the table":            {Op: "bogus"},
		"batch item op not in the table": {Op: OpBatch, Batch: []BatchItem{{Op: OpStat}, {Op: "bogus"}}},
	} {
		if out, ok := AppendRequest([]byte("kept"), &req); ok {
			t.Errorf("%s: encoded as %x", name, out)
		}
	}
	nan := Response{Stats: []ServerStat{{Speed: math.NaN()}}}
	if out, ok := AppendResponse(nil, &nan); ok {
		t.Errorf("a NaN stat encoded as %x", out)
	}
}

// Golden vectors: the bytes of one stat, one durable batch-of-one with its
// reply, and one one-entry ship. A change to the body format is a change to
// these lines, made on purpose — with a frameVersion bump if a deployed peer
// could meet it.
func TestGoldenVectors(t *testing.T) {
	mod := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	rec := &sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}
	reqs := []struct {
		name string
		req  Request
		hex  string
	}{
		{"stat", Request{ID: 2, Op: OpStat, FileSet: "fs00", Path: "/bench", Trace: 77, Parent: 3},
			"030102020466733030030" + "62f62656e6368084d0903"},
		{"durable batch of one", Request{ID: 7, Op: OpBatch, FileSet: "vol00", Durable: true,
			Batch: []BatchItem{{Op: OpUpdate, Path: "/a/b/c", Record: rec, Trace: 9}}},
			"2a0107" + "0205766f6c3030" + "1c01" + "0400062f612f622f63" + "018040a403eabfaea70d959aef3a" + "05616c696365" + "09" + "1d"},
		{"one-entry ship", Request{ID: 9, Op: OpShip, Daemon: 1,
			Entries: []ShipEntry{{Seq: 41, Trace: 5, Payload: []byte{4, 2, 'f', 's', 0xff}}}},
			"180109" + "0b01" + "2905" + "05040266 73ff" + "1002"},
		{"snapshot ship", Request{ID: 3, Op: OpShip, SnapSeq: 9, Snap: []byte{1, 2}},
			"180103" + "0c020102" + "0d09"},
		// The reset flag is one appended byte: the frame before it is the
		// plain snapshot ship, which decodes as it always did.
		{"reset ship", Request{ID: 3, Op: OpShip, SnapSeq: 9, Snap: []byte{1, 2}, Reset: true},
			"180103" + "0c020102" + "0d09" + "1e"},
	}
	for _, g := range reqs {
		got, ok := AppendRequest(nil, &g.req)
		if want := unhex(t, g.hex); !ok || string(got) != string(want) {
			t.Errorf("%s request:\n got  %x\n want %x", g.name, got, want)
		}
		var back Request
		if !new(Decoder).DecodeRequest(unhex(t, g.hex), &back) || !reflect.DeepEqual(back, g.req) {
			t.Errorf("%s request decodes to %+v", g.name, back)
		}
	}
	reply := Response{ID: 7, Trace: 9, Results: []BatchResult{{}}}
	got, ok := AppendResponse(nil, &reply)
	if want := unhex(t, "0107"+"0d09"+"1901"+"0000"); !ok || string(got) != string(want) {
		t.Errorf("durable batch-of-one reply:\n got  %x\n want %x", got, want)
	}
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	var compact []byte
	for i := 0; i < len(s); i++ {
		if s[i] != ' ' {
			compact = append(compact, s[i])
		}
	}
	b, err := hex.DecodeString(string(compact))
	if err != nil {
		t.Fatalf("bad golden hex %q: %v", s, err)
	}
	return b
}

// hotShapes are the frames the allocation budget is held on: the plain
// record write, the durable batch-of-one the sdk sends for every small
// write (with its reply), and the one-delta ship that write turns into.
func hotShapes() (s struct {
	update, batch, ship Request
	stat, batchReply    Response
}) {
	mod := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	rec := &sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}
	s.update = Request{ID: 7, Op: OpUpdate, FileSet: "fs00", Path: "/a/b/c", Trace: 9, Record: rec}
	s.batch = Request{ID: 7, Op: OpBatch, FileSet: "vol00", Durable: true, Trace: 9, Parent: 3,
		Batch: []BatchItem{{Op: OpUpdate, Path: "/a/b/c", Record: rec, Trace: 11}}}
	s.ship = Request{ID: 8, Op: OpShip, Daemon: 1,
		Entries: []ShipEntry{{Seq: 41, Trace: 9, Payload: make([]byte, 90)}}}
	s.stat = Response{ID: 7, Record: rec, Trace: 9}
	s.batchReply = Response{ID: 7, Trace: 9, Results: []BatchResult{{}}}
	return s
}

// TestEncodeDecodeAllocFree holds the four codec entry points —
// AppendRequest, AppendResponse, DecodeRequest, DecodeResponse — to zero
// heap allocations on warmed buffers and structs, for the batch and ship
// shapes as much as for a bare record.
func TestEncodeDecodeAllocFree(t *testing.T) {
	s := hotShapes()
	var dec Decoder
	for name, req := range map[string]*Request{"update": &s.update, "durable batch of one": &s.batch, "one-delta ship": &s.ship} {
		var buf []byte
		if n := testing.AllocsPerRun(100, func() { buf, _ = AppendRequest(buf[:0], req) }); n != 0 {
			t.Errorf("AppendRequest, %s: %v allocs/op, want 0", name, n)
		}
		var out Request
		if n := testing.AllocsPerRun(100, func() {
			if !dec.DecodeRequest(buf, &out) {
				t.Fatal("decoder refused the body")
			}
		}); n != 0 {
			t.Errorf("DecodeRequest, %s: %v allocs/op, want 0", name, n)
		}
		if !reflect.DeepEqual(&out, req) {
			t.Errorf("%s: decoded %+v, want %+v", name, out, *req)
		}
	}
	for name, resp := range map[string]*Response{"stat": &s.stat, "durable batch-of-one reply": &s.batchReply} {
		var buf []byte
		if n := testing.AllocsPerRun(100, func() { buf, _ = AppendResponse(buf[:0], resp) }); n != 0 {
			t.Errorf("AppendResponse, %s: %v allocs/op, want 0", name, n)
		}
		var out Response
		if n := testing.AllocsPerRun(100, func() {
			if !dec.DecodeResponse(buf, &out) {
				t.Fatal("decoder refused the body")
			}
		}); n != 0 {
			t.Errorf("DecodeResponse, %s: %v allocs/op, want 0", name, n)
		}
	}
}

// The BenchmarkEncode* family times the shapes TestEncodeDecodeAllocFree
// holds at 0 allocs/op.

func benchEncodeRequest(b *testing.B, req *Request) {
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = AppendRequest(buf[:0], req); !ok {
			b.Fatal("no encoding")
		}
	}
}

func benchEncodeResponse(b *testing.B, resp *Response) {
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = AppendResponse(buf[:0], resp); !ok {
			b.Fatal("no encoding")
		}
	}
}

func BenchmarkEncodeRequest(b *testing.B) {
	s := hotShapes()
	benchEncodeRequest(b, &s.update)
}

func BenchmarkEncodeResponse(b *testing.B) {
	s := hotShapes()
	benchEncodeResponse(b, &s.stat)
}

func BenchmarkEncodeBatchRequest(b *testing.B) {
	s := hotShapes()
	benchEncodeRequest(b, &s.batch)
}

func BenchmarkEncodeBatchReply(b *testing.B) {
	s := hotShapes()
	benchEncodeResponse(b, &s.batchReply)
}

func BenchmarkEncodeShip(b *testing.B) {
	s := hotShapes()
	benchEncodeRequest(b, &s.ship)
}

func BenchmarkEncodeDecodeRequest(b *testing.B) {
	s := hotShapes()
	body, _ := AppendRequest(nil, &s.batch)
	var dec Decoder
	var out Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !dec.DecodeRequest(body, &out) {
			b.Fatal("decoder refused the body")
		}
	}
}

func BenchmarkEncodeDecodeResponse(b *testing.B) {
	s := hotShapes()
	body, _ := AppendResponse(nil, &s.stat)
	var dec Decoder
	var out Response
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !dec.DecodeResponse(body, &out) {
			b.Fatal("decoder refused the body")
		}
	}
}
