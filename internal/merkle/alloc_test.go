//go:build !race

package merkle

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// The allocation regressions pinned here are the point of the arena /
// reusable-digest design: combine-per-node and StreamBuilder.Add must stay
// allocation-free in steady state, and a full Build must allocate O(depth),
// not O(leaves). The file is excluded from race builds because the race
// runtime adds its own allocations.

func TestCombineIntoZeroAlloc(t *testing.T) {
	hs := newHashers(buildOptions(nil))
	if hs.fixedLen == 0 {
		t.Fatal("default hasher should have a fixed digest size")
	}
	nh := hs.node()
	left := bytes.Repeat([]byte{0x11}, hs.fixedLen)
	right := bytes.Repeat([]byte{0x22}, hs.fixedLen)
	dst := make([]byte, 0, hs.fixedLen)
	allocs := testing.AllocsPerRun(100, func() {
		dst = nh.combineInto(dst[:0], left, right)
	})
	if allocs != 0 {
		t.Fatalf("combineInto allocates %.1f per call, want 0", allocs)
	}
	if want := hs.combine(left, right); !bytes.Equal(dst, want) {
		t.Fatalf("combineInto digest %x != combine digest %x", dst, want)
	}
}

func TestCombineIntoAliasedDst(t *testing.T) {
	// The merge cascade reuses a row that may alias an input; both children
	// are absorbed into the hash state before dst is written, so the digest
	// must not change when dst overlaps left.
	hs := newHashers(buildOptions(nil))
	nh := hs.node()
	left := bytes.Repeat([]byte{0x33}, hs.fixedLen)
	right := bytes.Repeat([]byte{0x44}, hs.fixedLen)
	want := hs.combine(left, right)
	got := nh.combineInto(left[:0], left, right)
	if !bytes.Equal(got, want) {
		t.Fatalf("aliased combineInto %x != combine %x", got, want)
	}
}

func TestStreamBuilderAddZeroAllocSteadyState(t *testing.T) {
	const n = 1 << 10
	values := leafValues(n)
	// AllocsPerRun calls the function runs+1 times (one warm-up); each call
	// consumes one pre-built builder so Add's own cost is all that is
	// measured.
	const runs = 5
	builders := make([]*StreamBuilder, runs+1)
	for i := range builders {
		b, err := NewStreamBuilder(n)
		if err != nil {
			t.Fatalf("NewStreamBuilder: %v", err)
		}
		builders[i] = b
	}
	idx := 0
	allocs := testing.AllocsPerRun(runs, func() {
		b := builders[idx]
		idx++
		for _, v := range values {
			if err := b.Add(v); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("StreamBuilder.Add allocates %.1f per %d-leaf stream, want 0", allocs, n)
	}
}

func TestBuildAllocsAreDepthBound(t *testing.T) {
	const n = 1 << 14
	values := make([][]byte, n)
	for i, v := range leafValues(n) {
		values[i] = v[:8]
	}
	at := func(i int) []byte { return values[i] }
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := BuildFunc(n, at); err != nil {
			t.Fatalf("BuildFunc: %v", err)
		}
	})
	runtime.ReadMemStats(&after)
	// A fixed handful (tree header, arena, leaf slab, offset table, hash
	// state) whatever n is. The seed build allocated ~4 per leaf (65536+
	// here); the [][]byte heap that followed it, 80 B per leaf plus the
	// caller's values.
	if allocs > 10 {
		t.Errorf("Build of %d leaves allocates %.0f, want <= 10", n, allocs)
	}
	// Per leaf: a 32-byte arena row, its 8 value bytes, a 4-byte offset.
	perLeaf := float64(after.TotalAlloc-before.TotalAlloc) / float64((runs+1)*n)
	if perLeaf > 64 {
		t.Errorf("Build of %d 8-byte leaves allocates %.1f B per leaf, want <= 64", n, perLeaf)
	}
}

// TestRebuildZeroAllocSteadyState pins the commit pass's storage: a Tree
// rebuilt through the run path — each run of leaves appended straight into
// the leaf slab, the nodes hashed a run at a time — allocates nothing once
// it has held a tree this size, at a run's edges and at the size the
// benchmark commits.
func TestRebuildZeroAllocSteadyState(t *testing.T) {
	run := func(dst []byte, lo int, ends []int) []byte {
		for j := range ends {
			dst = binary.BigEndian.AppendUint64(dst, uint64(lo+j)*0x9e3779b97f4a7c15)
			ends[j] = len(dst)
		}
		return dst
	}
	for _, n := range []int{1, 16, 17, 64, 1 << 14} {
		var tree Tree
		if err := tree.Rebuild(n, run); err != nil {
			t.Fatalf("Rebuild(%d): %v", n, err)
		}
		root := tree.Root()
		allocs := testing.AllocsPerRun(5, func() {
			if err := tree.Rebuild(n, run); err != nil {
				t.Fatalf("Rebuild(%d): %v", n, err)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: Rebuild through the run path allocates %.0f in steady state, want 0", n, allocs)
		}
		if !bytes.Equal(tree.Root(), root) {
			t.Errorf("n=%d: a rebuilt tree's root differs from its first build's", n)
		}
	}
}

// TestProofPathAllocs pins the per-response costs of the exchange path: a
// multiproof is three slabs however many samples it holds (the index list,
// the value and sibling headers, the value bytes) and encodes into one
// exactly-sized buffer.
func TestProofPathAllocs(t *testing.T) {
	tree, err := Build(leafValues(64))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	indices := []uint64{3, 60, 17, 17, 0, 63, 31, 32}
	var mp MultiProof
	if allocs := testing.AllocsPerRun(100, func() { mp, err = tree.ProveMulti(indices) }); allocs > 3 {
		t.Errorf("ProveMulti(8 samples) allocates %.1f, want <= 3", allocs)
	}
	if err != nil {
		t.Fatalf("ProveMulti: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, err = mp.MarshalBinary() }); allocs > 1 {
		t.Errorf("MultiProof.MarshalBinary allocates %.1f, want <= 1", allocs)
	}
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
}

// TestVerifyMultiZeroAlloc: the climb keeps its positions and node headers on
// the stack up to stackSamples samples and its digests in the verifier's
// scratch, sized by the first call — so a verifier in steady state allocates
// nothing, whether the proof came from a tree or off the wire.
func TestVerifyMultiZeroAlloc(t *testing.T) {
	for _, shape := range []struct{ n, m int }{{64, 8}, {256, 16}, {1 << 14, stackSamples}} {
		tree, err := Build(leafValues(shape.n))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		root := tree.Root()
		indices := make([]uint64, shape.m)
		for i := range indices {
			indices[i] = uint64(i*i*7+3) % uint64(shape.n)
		}
		mp, err := tree.ProveMulti(indices)
		if err != nil {
			t.Fatalf("ProveMulti: %v", err)
		}
		wire, err := mp.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		var decoded MultiProof
		if allocs := testing.AllocsPerRun(100, func() { err = decoded.UnmarshalAliased(wire) }); allocs > 2 {
			t.Errorf("n=%d m=%d: UnmarshalAliased allocates %.1f, want <= 2", shape.n, shape.m, allocs)
		}
		if err != nil {
			t.Fatalf("UnmarshalAliased: %v", err)
		}
		v := NewProofVerifier()
		for _, p := range []*MultiProof{&mp, &decoded} {
			if allocs := testing.AllocsPerRun(100, func() { err = v.VerifyMulti(root, p) }); allocs != 0 {
				t.Errorf("n=%d m=%d: VerifyMulti allocates %.1f in steady state, want 0", shape.n, shape.m, allocs)
			}
			if err != nil {
				t.Fatalf("VerifyMulti: %v", err)
			}
		}
	}
}
