package merkle

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func snapLeaves(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		// Variable lengths exercise the raw-leaf level-0 frontier entries.
		leaves[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 1+i%5)
	}
	return leaves
}

func serialRoot(t *testing.T, leaves [][]byte) []byte {
	t.Helper()
	b, err := NewStreamBuilder(len(leaves))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		if err := b.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestStreamSnapshotRestoreRoots snapshots builders at every split point and
// restores them, under option lists with and without WithParallelism (which a
// stream accepts and ignores); all roots must be byte-identical to an
// uninterrupted build.
func TestStreamSnapshotRestoreRoots(t *testing.T) {
	modes := []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
		{"sharded2", []Option{WithParallelism(2)}},
		{"sharded4", []Option{WithParallelism(4)}},
	}
	for _, n := range []int{1, 2, 3, 7, 8, 13, 16, 33, 70} {
		leaves := snapLeaves(n)
		want := serialRoot(t, leaves)
		for split := 0; split <= n; split++ {
			for _, from := range modes {
				for _, to := range modes {
					b, err := NewStreamBuilder(n, from.opts...)
					if err != nil {
						t.Fatal(err)
					}
					for _, l := range leaves[:split] {
						if err := b.Add(l); err != nil {
							t.Fatal(err)
						}
					}
					snap, err := b.Snapshot()
					if err != nil {
						t.Fatalf("n=%d split=%d %s: snapshot: %v", n, split, from.name, err)
					}
					// Marshal/unmarshal on the way so the wire form is what
					// actually gets restored.
					enc, err := snap.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					var decoded StreamSnapshot
					if err := decoded.UnmarshalBinary(enc); err != nil {
						t.Fatalf("n=%d split=%d: unmarshal: %v", n, split, err)
					}
					r, err := RestoreStreamBuilder(&decoded, to.opts...)
					if err != nil {
						t.Fatalf("n=%d split=%d %s->%s: restore: %v", n, split, from.name, to.name, err)
					}
					for _, l := range leaves[split:] {
						if err := r.Add(l); err != nil {
							t.Fatal(err)
						}
					}
					got, err := r.Root()
					if err != nil {
						t.Fatalf("n=%d split=%d %s->%s: root: %v", n, split, from.name, to.name, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("n=%d split=%d %s->%s: restored root differs", n, split, from.name, to.name)
					}
					// The original builder must keep working after Snapshot.
					for _, l := range leaves[split:] {
						if err := b.Add(l); err != nil {
							t.Fatal(err)
						}
					}
					cont, err := b.Root()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(cont, want) {
						t.Fatalf("n=%d split=%d %s: snapshot disturbed the builder", n, split, from.name)
					}
				}
			}
		}
	}
}

func TestStreamSnapshotAfterRoot(t *testing.T) {
	b, err := NewStreamBuilder(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Root(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Snapshot(); !errors.Is(err, ErrFinalized) {
		t.Fatalf("snapshot after root: got %v, want ErrFinalized", err)
	}
}

func TestStreamSnapshotValidation(t *testing.T) {
	b, err := NewStreamBuilder(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := b.Add([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*StreamSnapshot){
		"added beyond n":   func(s *StreamSnapshot) { s.Added = s.N + 1 },
		"missing frontier": func(s *StreamSnapshot) { s.Frontier = s.Frontier[:1] },
		"extra frontier": func(s *StreamSnapshot) {
			s.Frontier = append(s.Frontier, FrontierEntry{Level: 1, Digest: []byte{1}})
		},
		"wrong level": func(s *StreamSnapshot) { s.Frontier[0].Level = 1 },
		"nil digest":  func(s *StreamSnapshot) { s.Frontier[0].Digest = nil },
	}
	for name, corrupt := range cases {
		bad := *snap
		bad.Frontier = append([]FrontierEntry(nil), snap.Frontier...)
		corrupt(&bad)
		if _, err := RestoreStreamBuilder(&bad); !errors.Is(err, ErrBadStreamSnapshot) {
			t.Errorf("%s: got %v, want ErrBadStreamSnapshot", name, err)
		}
	}
}

func TestStreamSnapshotUnmarshalCorruption(t *testing.T) {
	b, err := NewStreamBuilder(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		if err := b.Add([]byte{byte(i), 0xaa}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		var s StreamSnapshot
		if err := s.UnmarshalBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	var s StreamSnapshot
	if err := s.UnmarshalBinary(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// The snapshot ends in a window flag that is always 0; a snapshot
	// carrying window-tracking state is refused, not misread.
	if enc[len(enc)-1] != 0 {
		t.Fatalf("snapshot ends in %#x, want the window flag 0", enc[len(enc)-1])
	}
	for _, flag := range []byte{1, 2} {
		bad := append(bytes.Clone(enc[:len(enc)-1]), flag, 0x04, 0x00, 0x00, 0x00, 0x00)
		if err := s.UnmarshalBinary(bad); !errors.Is(err, ErrBadStreamSnapshot) {
			t.Fatalf("window flag %d: err = %v, want ErrBadStreamSnapshot", flag, err)
		}
	}
}

func ExampleStreamBuilder_Snapshot() {
	b, _ := NewStreamBuilder(4)
	_ = b.Add([]byte("a"))
	_ = b.Add([]byte("b"))
	snap, _ := b.Snapshot()
	enc, _ := snap.MarshalBinary()

	// ... process restarts; the snapshot bytes came back from disk ...

	var back StreamSnapshot
	_ = back.UnmarshalBinary(enc)
	r, _ := RestoreStreamBuilder(&back)
	_ = r.Add([]byte("c"))
	_ = r.Add([]byte("d"))
	root, _ := r.Root()

	full, _ := NewStreamBuilder(4)
	for _, l := range []string{"a", "b", "c", "d"} {
		_ = full.Add([]byte(l))
	}
	want, _ := full.Root()
	fmt.Println(bytes.Equal(root, want))
	// Output: true
}
