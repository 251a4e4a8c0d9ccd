package journal

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"anufs/internal/sharedisk"
)

// kindReplays is, per entry kind, one entry of that kind and the effect
// replaying it onto seedImages must have.
var kindReplays = map[EntryKind]struct {
	entry  Entry
	effect func(map[string]sharedisk.Image) bool
}{
	KindCreateFileSet: {
		Entry{Kind: KindCreateFileSet, FileSet: "new"},
		func(m map[string]sharedisk.Image) bool {
			return m["new"].Version == 1 && m["new"].Records != nil && m["fs"].Version == 3
		},
	},
	KindFlush: {
		Entry{Kind: KindFlush, FileSet: "fs", Image: img(5, "/b")},
		func(m map[string]sharedisk.Image) bool {
			_, a := m["fs"].Records["/a"]
			_, b := m["fs"].Records["/b"]
			return m["fs"].Version == 5 && !a && b
		},
	},
	KindDrop: {
		Entry{Kind: KindDrop, FileSet: "fs"},
		func(m map[string]sharedisk.Image) bool { _, ok := m["fs"]; return !ok },
	},
	KindDelta: {
		delta("fs", 4, []string{"/a"}, "/c"),
		func(m map[string]sharedisk.Image) bool {
			_, a := m["fs"].Records["/a"]
			_, c := m["fs"].Records["/c"]
			return m["fs"].Version == 4 && !a && c
		},
	},
}

// seedImages is the image map every kind replays onto: one file set at
// version 3 holding /a.
func seedImages() map[string]sharedisk.Image {
	return map[string]sharedisk.Image{"fs": img(3, "/a")}
}

// TestEveryKindReplays reads the EntryKind constants out of record.go
// itself and runs each through the whole durable path — appendEntryFrame,
// decodeEntry, applyEntry — onto a seeded image map. A kind added without
// an encode, decode or replay arm fails here, and so does one whose replay
// leaves no visible effect.
func TestEveryKindReplays(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "record.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if id, ok := spec.Type.(*ast.Ident); !ok || id.Name != "EntryKind" {
			return true
		}
		for i, name := range spec.Names {
			v, err := strconv.ParseUint(spec.Values[i].(*ast.BasicLit).Value, 0, 8)
			if err != nil {
				t.Fatalf("%s: %v", name.Name, err)
			}
			declared++
			kind := EntryKind(v)
			c, ok := kindReplays[kind]
			if !ok {
				t.Errorf("%s: no replay case in kindReplays", name.Name)
				c.entry = Entry{Kind: kind, FileSet: "fs"}
			}
			frame := appendEntryFrame(nil, c.entry, new([]string))
			payload, _, ok := nextFrame(frame)
			if !ok {
				t.Errorf("%s: appendEntryFrame wrote a torn frame", name.Name)
				continue
			}
			e, err := decodeEntry(payload)
			if err != nil {
				t.Errorf("%s: decode: %v", name.Name, err)
				continue
			}
			images := seedImages()
			if err := applyEntry(images, e); err != nil {
				t.Errorf("%s: replay: %v", name.Name, err)
				continue
			}
			if c.effect != nil && !c.effect(images) {
				t.Errorf("%s: replay left %v, not the kind's effect", name.Name, images)
			}
		}
		return true
	})
	if declared != len(kindReplays) {
		t.Errorf("record.go declares %d kinds, kindReplays has %d", declared, len(kindReplays))
	}
}

// TestUnknownKindRefusedAtReplay: a kind applyEntry has no arm for is
// corruption, not a silent no-op.
func TestUnknownKindRefusedAtReplay(t *testing.T) {
	images := seedImages()
	if err := applyEntry(images, Entry{Kind: 99, FileSet: "fs"}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("applyEntry(kind 99) = %v, want ErrCorrupt", err)
	}
	if images["fs"].Version != 3 {
		t.Fatalf("a refused entry changed the images: %v", images)
	}
}
