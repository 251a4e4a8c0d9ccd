package placement

import "testing"

// FuzzDecodeClusterMap drives the map decoder with arbitrary bytes — the
// payload arrives over the wire from whatever claims to be an authority, so
// corrupt input must produce an error, never a panic, and anything the
// decoder accepts must satisfy the same invariants Validate enforces.
func FuzzDecodeClusterMap(f *testing.F) {
	if b, err := sampleMap().Encode(); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"epoch":1,"daemons":[{"id":0,"addr":"a","speed":1}],"assign":{"v":0}}`))
	f.Add([]byte(`{"epoch":2,"daemons":[{"id":0,"addr":"a","speed":1,"journal_dir":"/shared/d0"},{"id":1,"addr":"b","speed":2,"journal_dir":""}],"assign":{"v":1}}`))
	f.Add([]byte(`{"epoch":0,"daemons":[],"assign":null}`))
	f.Add([]byte(`{"epoch":18446744073709551615,"daemons":[{"id":-1,"addr":"x","speed":1e308}]}`))
	f.Add([]byte(`{"daemons":[{"id":0,"addr":"a","speed":1},{"id":0,"addr":"b","speed":2}]}`))
	f.Add([]byte("not json"))
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeClusterMap(data)
		if err != nil {
			return
		}
		// Accepted maps must re-validate and re-encode cleanly.
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded map fails Validate: %v", err)
		}
		b, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded map fails Encode: %v", err)
		}
		m2, err := DecodeClusterMap(b)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Epoch != m.Epoch || len(m2.Daemons) != len(m.Daemons) || len(m2.Assign) != len(m.Assign) {
			t.Fatalf("round trip drifted: %+v vs %+v", m, m2)
		}
	})
}
