package wire

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"anufs/internal/sharedisk"
)

// fastRequests are representative hot-path frames: every one must encode
// byte-identically to encoding/json and round-trip through the fast
// decoder.
func fastRequests() []Request {
	mod := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	return []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpStat, FileSet: "fs00", Path: "/bench", Trace: 77, Parent: 3},
		{ID: 3, Op: OpCreate, FileSet: "fs01", Path: "/a/b/c",
			Record: &sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}},
		{ID: 4, Op: OpUpdate, FileSet: "fs01", Path: "/a/b/c",
			Record: &sharedisk.Record{Size: -1, Mode: 0, Owner: ""}},
		{ID: 5, Op: OpLock, FileSet: "fs02", Path: "/x", Client: 9, Exclusive: true},
		{ID: 6, Op: OpResolve, Prefix: "/mnt", Path: "/mnt/data/file"},
		{ID: 8, Op: OpHeartbeat, Daemon: 3, Epoch: 12, Addr: "127.0.0.1:7070", JournalDir: "/var/anufs/wal"},
		{ID: 9, Op: OpTrace, Count: 100},
		{ID: 10, Op: OpSync, Durable: true},
		{},
	}
}

func fastResponses() []Response {
	mod := time.Date(2026, 8, 7, 12, 30, 45, 500000000, time.UTC)
	return []Response{
		{ID: 1},
		{ID: 2, Record: &sharedisk.Record{Size: 1, Mode: 0o755, ModTime: mod, Owner: "bob"}, Trace: 77},
		{ID: 3, Err: "fleet: unplaced file set fs09", Code: CodeUnplaced},
		{ID: 4, Owner: 2, Epoch: 41},
		{ID: 5, Client: 12345},
		{ID: 6, FileSet: "fs03", Rel: "/data/file"},
		{ID: 7, Err: "wire: wrong owner (epoch 41): refetch the cluster map", Code: CodeWrongOwner, Epoch: 41},
		{ID: 8, AckSeq: 99},
		{},
	}
}

func TestAppendRequestMatchesJSON(t *testing.T) {
	for i, req := range fastRequests() {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendRequest(nil, &req)
		if !ok {
			t.Fatalf("request %d: fast encoder bailed", i)
		}
		if string(got) != string(want) {
			t.Errorf("request %d:\n fast %s\n json %s", i, got, want)
		}
	}
}

func TestAppendResponseMatchesJSON(t *testing.T) {
	for i, resp := range fastResponses() {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendResponse(nil, &resp)
		if !ok {
			t.Fatalf("response %d: fast encoder bailed", i)
		}
		if string(got) != string(want) {
			t.Errorf("response %d:\n fast %s\n json %s", i, got, want)
		}
	}
}

func TestAppendBailsOnSlowFields(t *testing.T) {
	reqs := []Request{
		{ID: 1, Entries: []ShipEntry{{Seq: 1}}},
		{ID: 2, Snap: []byte("x")},
		{ID: 3, Speed: 1.5},
		{ID: 4, Batch: []BatchItem{{Op: OpCreate}}},
		{ID: 5, FileSets: []string{"a"}},
		{ID: 6, Volume: "tenant"},
		{ID: 7, Op: Op("weird\"op")}, // needs escaping
		{ID: 8, Path: "/päth"},       // non-ASCII
		{ID: 9, Record: &sharedisk.Record{ModTime: time.Time{}.AddDate(10001, 0, 0)}}, // year out of range
	}
	for i, req := range reqs {
		prefix := []byte("prefix")
		got, ok := AppendRequest(prefix, &req)
		if ok {
			t.Errorf("request %d: fast encoder should have bailed", i)
		}
		if string(got) != "prefix" {
			t.Errorf("request %d: bail did not restore dst: %q", i, got)
		}
	}
	resps := []Response{
		{ID: 1, Paths: []string{"/a"}},
		{ID: 2, Journal: map[string]int64{"x": 1}},
		{ID: 3, Node: "n1", Now: 5},
		{ID: 4, Results: []BatchResult{{}}},
		{ID: 5, Err: "line1\nline2"},
	}
	for i, resp := range resps {
		if _, ok := AppendResponse(nil, &resp); ok {
			t.Errorf("response %d: fast encoder should have bailed", i)
		}
	}
}

func TestDecodeRequestRoundTrip(t *testing.T) {
	var dec Decoder
	var got Request
	for i, req := range fastRequests() {
		payload, ok := AppendRequest(nil, &req)
		if !ok {
			t.Fatalf("request %d: encoder bailed", i)
		}
		if !dec.DecodeRequest(payload, &got) {
			t.Fatalf("request %d: decoder bailed on %s", i, payload)
		}
		want := req
		if !requestsEqual(&want, &got) {
			t.Errorf("request %d: round trip mismatch\n want %+v\n got  %+v", i, want, got)
		}
	}
}

func TestDecodeResponseRoundTrip(t *testing.T) {
	var dec Decoder
	var got Response
	for i, resp := range fastResponses() {
		payload, ok := AppendResponse(nil, &resp)
		if !ok {
			t.Fatalf("response %d: encoder bailed", i)
		}
		if !dec.DecodeResponse(payload, &got) {
			t.Fatalf("response %d: decoder bailed on %s", i, payload)
		}
		want := resp
		if !responsesEqual(&want, &got) {
			t.Errorf("response %d: round trip mismatch\n want %+v\n got  %+v", i, want, got)
		}
	}
}

// requestsEqual compares semantically: Record by value (the decoder's
// points into scratch).
func requestsEqual(a, b *Request) bool {
	ar, br := a.Record, b.Record
	if (ar == nil) != (br == nil) {
		return false
	}
	if ar != nil && !recordsEqual(*ar, *br) {
		return false
	}
	ac, bc := *a, *b
	ac.Record, bc.Record = nil, nil
	return reflect.DeepEqual(ac, bc)
}

func responsesEqual(a, b *Response) bool {
	ar, br := a.Record, b.Record
	if (ar == nil) != (br == nil) {
		return false
	}
	if ar != nil && !recordsEqual(*ar, *br) {
		return false
	}
	ac, bc := *a, *b
	ac.Record, bc.Record = nil, nil
	return reflect.DeepEqual(ac, bc)
}

func recordsEqual(a, b sharedisk.Record) bool {
	return a.Size == b.Size && a.Mode == b.Mode && a.Owner == b.Owner && a.ModTime.Equal(b.ModTime)
}

// TestDecodeAgreesWithJSON feeds handwritten payloads to both decoders:
// whenever the fast path accepts, its result must match encoding/json's.
func TestDecodeAgreesWithJSON(t *testing.T) {
	payloads := []string{
		`{"id":1,"op":"stat","fileset":"fs00","path":"/bench"}`,
		`{"id":2,"record":{"Size":10,"Mode":420,"ModTime":"2026-08-07T12:30:45.5Z","Owner":"x"}}`,
		`{"id":3,"exclusive":true,"durable":false}`,
		`{"id":4,"count":-7,"daemon":-1}`,
		`{}`,
		`{"id":18446744073709551615}`,
	}
	var dec Decoder
	var fast Request
	for _, p := range payloads {
		if !dec.DecodeRequest([]byte(p), &fast) {
			t.Fatalf("fast decoder bailed on %s", p)
		}
		var want Request
		if err := json.Unmarshal([]byte(p), &want); err != nil {
			t.Fatalf("json rejected %s: %v", p, err)
		}
		if !requestsEqual(&want, &fast) {
			t.Errorf("decode disagreement on %s\n json %+v\n fast %+v", p, want, fast)
		}
	}
}

// TestDecodeBails pins the payload shapes that must hit the fallback —
// each must still be accepted or cleanly rejected by encoding/json, never
// mis-decoded by the fast path.
func TestDecodeBails(t *testing.T) {
	payloads := []string{
		`{"id": 1}`,             // interior whitespace
		`{"id":1,"op":"a\"b"}`,  // escape
		`{"id":1.5}`,            // float
		`{"id":1,"speed":2.5}`,  // slow-path field
		`{"id":1,"entries":[]}`, // slow-path field
		`{"id":1,"bogus":3}`,    // unknown key
		`{"id":1}trailing`,      // trailing garbage
		`{"id":1,}`,             // trailing comma
		`{"record":null}`,       // null
		`{"record":{"ModTime":"2026-08-07T12:30:45+02:00"}}`, // non-UTC offset
		`[1,2]`, // not an object
		``,      // empty
	}
	var dec Decoder
	var r Request
	for _, p := range payloads {
		if dec.DecodeRequest([]byte(p), &r) {
			t.Errorf("fast decoder accepted %q; it must bail to encoding/json", p)
		}
	}
}

// TestDecodeZeroesReusedStruct: a struct reused across decodes must not
// leak fields from a previous (possibly fallback-decoded) frame.
func TestDecodeZeroesReusedStruct(t *testing.T) {
	var dec Decoder
	r := Request{
		Op: OpShip, Entries: []ShipEntry{{Seq: 9}}, Snap: []byte("s"),
		Volume: "t", Batch: []BatchItem{{}}, Speed: 2, FileSet: "old",
		Record: &sharedisk.Record{Size: 3},
	}
	if !dec.DecodeRequest([]byte(`{"id":42,"op":"ping"}`), &r) {
		t.Fatal("decoder bailed")
	}
	want := Request{ID: 42, Op: OpPing}
	if !requestsEqual(&want, &r) {
		t.Errorf("reused struct not zeroed: %+v", r)
	}
}

// TestEncodeDecodeAllocFree is the allocation contract behind the
// //anufs:hotpath markers: steady-state encode and decode of warmed
// buffers/structs perform zero heap allocations.
func TestEncodeDecodeAllocFree(t *testing.T) {
	mod := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	req := Request{ID: 7, Op: OpUpdate, FileSet: "fs00", Path: "/a/b/c", Trace: 9,
		Record: &sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}}
	resp := Response{ID: 7, Record: &sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}, Trace: 9}
	var encBuf []byte
	if n := testing.AllocsPerRun(100, func() {
		var ok bool
		encBuf, ok = AppendRequest(encBuf[:0], &req)
		if !ok {
			t.Fatal("encoder bailed")
		}
	}); n != 0 {
		t.Errorf("AppendRequest: %v allocs/op, want 0", n)
	}
	var respBuf []byte
	if n := testing.AllocsPerRun(100, func() {
		var ok bool
		respBuf, ok = AppendResponse(respBuf[:0], &resp)
		if !ok {
			t.Fatal("encoder bailed")
		}
	}); n != 0 {
		t.Errorf("AppendResponse: %v allocs/op, want 0", n)
	}
	var dec Decoder
	var dreq Request
	if n := testing.AllocsPerRun(100, func() {
		if !dec.DecodeRequest(encBuf, &dreq) {
			t.Fatal("decoder bailed")
		}
	}); n != 0 {
		t.Errorf("DecodeRequest: %v allocs/op, want 0", n)
	}
	var dresp Response
	if n := testing.AllocsPerRun(100, func() {
		if !dec.DecodeResponse(respBuf, &dresp) {
			t.Fatal("decoder bailed")
		}
	}); n != 0 {
		t.Errorf("DecodeResponse: %v allocs/op, want 0", n)
	}
}

// The BenchmarkEncode* family is CI's allocation regression guard:
// `go test -run=NONE -bench=BenchmarkEncode -benchmem` must report
// 0 allocs/op for every benchmark here (cmd/allocguard enforces it).

func BenchmarkEncodeRequestFast(b *testing.B) {
	mod := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	req := Request{ID: 7, Op: OpUpdate, FileSet: "fs00", Path: "/a/b/c", Trace: 9,
		Record: &sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = AppendRequest(buf[:0], &req); !ok {
			b.Fatal("encoder bailed")
		}
	}
}

func BenchmarkEncodeResponseFast(b *testing.B) {
	mod := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	resp := Response{ID: 7, Record: &sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}, Trace: 9}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = AppendResponse(buf[:0], &resp); !ok {
			b.Fatal("encoder bailed")
		}
	}
}

func BenchmarkEncodeDecodeRequest(b *testing.B) {
	mod := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	req := Request{ID: 7, Op: OpUpdate, FileSet: "fs00", Path: "/a/b/c", Trace: 9,
		Record: &sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}}
	payload, ok := AppendRequest(nil, &req)
	if !ok {
		b.Fatal("encoder bailed")
	}
	var dec Decoder
	var out Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !dec.DecodeRequest(payload, &out) {
			b.Fatal("decoder bailed")
		}
	}
}

func BenchmarkEncodeDecodeResponse(b *testing.B) {
	mod := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	resp := Response{ID: 7, Record: &sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}, Trace: 9}
	payload, ok := AppendResponse(nil, &resp)
	if !ok {
		b.Fatal("encoder bailed")
	}
	var dec Decoder
	var out Response
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !dec.DecodeResponse(payload, &out) {
			b.Fatal("decoder bailed")
		}
	}
}

// BenchmarkEncodeRequestJSON is the encoding/json baseline the fast path
// is measured against (not subject to the 0-alloc guard: allocguard only
// enforces benchmarks it is pointed at, and CI points it at this file's
// Fast/Decode benchmarks plus the journal's).
func BenchmarkEncodeRequestJSONBaseline(b *testing.B) {
	mod := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	req := Request{ID: 7, Op: OpUpdate, FileSet: "fs00", Path: "/a/b/c", Trace: 9,
		Record: &sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
}
