package merkle

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

// referenceHeap is the construction Tree replaced, kept as the specification
// the flat layout is fuzzed against: a [][]byte heap holding the caller's
// leaf slices, the pad digest past them, and one allocating hashers.combine
// per internal node. heap[1] is the root, heap[cap+i] leaf i.
func referenceHeap(hs hashers, values [][]byte) [][]byte {
	capacity := nextPow2(len(values))
	heap := make([][]byte, 2*capacity)
	for i := range heap[capacity:] {
		heap[capacity+i] = hs.pad
	}
	copy(heap[capacity:], values)
	for i := capacity - 1; i >= 1; i-- {
		heap[i] = hs.combine(heap[2*i], heap[2*i+1])
	}
	return heap
}

// referenceProof reads leaf i's audit path off the reference heap.
func referenceProof(heap [][]byte, n, i int) *Proof {
	capacity := len(heap) / 2
	p := &Proof{Index: i, N: n, Value: heap[capacity+i], Siblings: [][]byte{}}
	for pos := capacity + i; pos > 1; pos /= 2 {
		p.Siblings = append(p.Siblings, heap[pos^1])
	}
	return p
}

// carveLeaves cuts n leaf values out of data, each led by a length byte:
// ragged lengths, empty values (a zero length byte, or data run dry), never
// nil.
func carveLeaves(n int, data []byte) [][]byte {
	values := make([][]byte, n)
	for i := range values {
		values[i] = []byte{}
		if len(data) == 0 {
			continue
		}
		take := min(int(data[0])%40, len(data)-1)
		values[i] = data[1 : 1+take : 1+take]
		data = data[1+take:]
	}
	return values
}

// dirtyTree returns a tree of n leaves of 0xA5 bytes, ragged: storage for a
// Rebuild to find used.
func dirtyTree(t *testing.T, n int, opts ...Option) *Tree {
	t.Helper()
	tree, err := BuildFunc(n, func(i int) []byte { return bytes.Repeat([]byte{0xA5}, 1+i%50) }, opts...)
	if err != nil {
		t.Fatalf("dirty BuildFunc(n=%d): %v", n, err)
	}
	return tree
}

// checkTreeMatchesReference builds the flat Tree — through the sharded
// builder with 4 workers when parallel, whatever the size — and demands the
// reference's root, for every leaf its value and sibling list from Prove,
// and the reference's multiproof over every third leaf from ProveMulti:
// of a tree built from nothing, and of one rebuilt over what a larger, a
// smaller and a different-hasher build left behind.
func checkTreeMatchesReference(t *testing.T, nSeed uint16, parallel, useMD5 bool, data []byte) {
	n := int(nSeed)%1100 + 1
	values := carveLeaves(n, data)
	var opts, otherOpts []Option
	if useMD5 {
		opts = append(opts, WithHasher(md5.New))
	} else {
		otherOpts = append(otherOpts, WithHasher(md5.New))
	}
	heap := referenceHeap(newHashers(buildOptions(opts)), values)
	root := heap[1] // for n = 1, the leaf itself
	var challenged []uint64
	for i := 0; i < n; i += 3 {
		challenged = append(challenged, uint64(i))
	}
	wantMulti := referenceMultiProof(heap, n, challenged)

	at := func(i int) []byte { return values[i] }
	for _, into := range []struct {
		what string
		tree *Tree
	}{
		{"a new tree", new(Tree)},
		{"a larger tree", dirtyTree(t, 2*n+3, opts...)},
		{"a smaller tree", dirtyTree(t, (n+2)/3, opts...)},
		{"another hasher's tree", dirtyTree(t, n+1, otherOpts...)},
	} {
		tree := into.tree
		if parallel && n > 1 {
			rebuildParallelDirect(t, tree, n, 4, at, opts...)
		} else if err := tree.Rebuild(n, PerLeaf(at), opts...); err != nil {
			t.Fatalf("Rebuild(n=%d) into %s: %v", n, into.what, err)
		}
		desc := fmt.Sprintf("n=%d parallel=%v md5=%v into %s", n, parallel, useMD5, into.what)
		if got := tree.Root(); !bytes.Equal(got, root) {
			t.Fatalf("%s: root %x, reference %x", desc, got, root)
		}
		if tree.N() != n || tree.Height() != log2(len(heap)/2) {
			t.Fatalf("%s: N, Height = %d, %d", desc, tree.N(), tree.Height())
		}
		mp, err := tree.ProveMulti(challenged)
		if err != nil {
			t.Fatalf("%s: ProveMulti: %v", desc, err)
		}
		if !sameMultiProof(&mp, &wantMulti) {
			t.Fatalf("%s: ProveMulti differs from the reference", desc)
		}
		for i := 0; i < n; i++ {
			want := referenceProof(heap, n, i)
			got, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("%s: Prove(%d): %v", desc, i, err)
			}
			if !sameProof(got, want) || got.Value == nil {
				t.Fatalf("%s: Prove(%d) differs from the reference", desc, i)
			}
		}
	}
}

// FuzzTreeMatchesReference is the differential for the pointer-free layout:
// arena rows, slab spans and the shared pad behind node(i) against the
// [][]byte heap they replaced, over ragged and empty leaves, padded domains,
// both builders, two digest sizes, and new and dirty storage.
func FuzzTreeMatchesReference(f *testing.F) {
	for _, s := range treeReferenceSeeds {
		f.Add(s.nSeed, s.parallel, s.useMD5, s.data)
	}
	f.Fuzz(checkTreeMatchesReference)
}

var treeReferenceSeeds = []struct {
	nSeed            uint16
	parallel, useMD5 bool
	data             []byte
}{
	{0, false, false, []byte{0x03, 'a', 'b', 'c'}},           // one leaf: the root is the value
	{1, true, false, []byte{}},                               // two empty leaves
	{36, false, true, []byte("\x05hello\x00\x02hi\x27fuzz")}, // n=37, md5, ragged then dry
	{36, true, false, bytes.Repeat([]byte{0x07}, 400)},
	{1023, true, true, bytes.Repeat([]byte{0x00, 0x01, 0xAA, 0x28}, 300)},
	{1024, false, false, bytes.Repeat([]byte{0x20}, 2048)}, // n=1025: almost half padding
	{299, false, false, nil},                               // every leaf empty: the slab holds no byte
}

// TestRebuildDirtyTreeMatchesReference runs the differential's seeds by a
// name the kit checks select: each is built from nothing and rebuilt over
// three dirty trees.
func TestRebuildDirtyTreeMatchesReference(t *testing.T) {
	for _, s := range treeReferenceSeeds {
		checkTreeMatchesReference(t, s.nSeed, s.parallel, s.useMD5, s.data)
	}
}

// TestRunsAtPowerOfTwoEdgesMatchReference hashes 8-byte leaves at n = 2^k
// and 2^k ± 1: at 2^k + 1 most of the bottom level is pad, and at 2^k - 1
// (k >= 4) one run of shortsha.Lanes nodes hashes leaf pairs (19-byte
// messages) beside the pair of a leaf and the 32-byte pad digest (43 bytes).
// Tree, PartialTree and the multiproof over every leaf must give the
// reference root.
func TestRunsAtPowerOfTwoEdgesMatchReference(t *testing.T) {
	hs := defaultHashers()
	for k := 1; k <= 10; k++ {
		for _, n := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
			values := make([][]byte, n)
			all := make([]uint64, n)
			for i := range values {
				values[i] = binary.BigEndian.AppendUint64(nil, uint64(i)*0x9e3779b97f4a7c15)
				all[i] = uint64(i)
			}
			root := referenceHeap(hs, values)[1]
			tree, err := Build(values)
			if err != nil {
				t.Fatalf("Build(n=%d): %v", n, err)
			}
			if got := tree.Root(); !bytes.Equal(got, root) {
				t.Fatalf("n=%d: Tree root %x, reference %x", n, got, root)
			}
			ell := min(5, tree.Height())
			partial, err := NewPartial(n, ell, func(i int) []byte { return values[i] })
			if err != nil {
				t.Fatalf("NewPartial(n=%d, ℓ=%d): %v", n, ell, err)
			}
			if got := partial.Root(); !bytes.Equal(got, root) {
				t.Fatalf("n=%d ℓ=%d: PartialTree root %x, reference %x", n, ell, got, root)
			}
			mp, err := partial.ProveMulti(all)
			if err != nil {
				t.Fatalf("n=%d: PartialTree.ProveMulti: %v", n, err)
			}
			if err := NewProofVerifier().VerifyMulti(root, &mp); err != nil {
				t.Fatalf("n=%d: the multiproof over every leaf: %v", n, err)
			}
		}
	}
}

// TestConstructionCallsLeafProducerOnce pins the contract grid's screening
// pass rests on: building a Tree or a PartialTree calls the leaf producer
// exactly once per index, whatever the size, the worker count or ℓ.
func TestConstructionCallsLeafProducerOnce(t *testing.T) {
	for _, n := range []int{1, 37, 1024, 1500} {
		values := leafValues(n)
		counts := make([]atomic.Int64, n)
		at := func(i int) []byte {
			counts[i].Add(1)
			return values[i]
		}
		check := func(what string) {
			t.Helper()
			for i := range counts {
				if c := counts[i].Swap(0); c != 1 {
					t.Fatalf("%s: leaf %d produced %d times, want exactly 1", what, i, c)
				}
			}
		}
		for _, p := range []int{1, 4} {
			if _, err := BuildFunc(n, at, WithParallelism(p)); err != nil {
				t.Fatalf("BuildFunc(n=%d, p=%d): %v", n, p, err)
			}
			check(fmt.Sprintf("BuildFunc(n=%d, p=%d)", n, p))
			for _, ell := range []int{0, 3} {
				ell = min(ell, log2(nextPow2(n)))
				if _, err := NewPartial(n, ell, at, WithParallelism(p)); err != nil {
					t.Fatalf("NewPartial(n=%d, ℓ=%d, p=%d): %v", n, ell, p, err)
				}
				check(fmt.Sprintf("NewPartial(n=%d, ℓ=%d, p=%d)", n, ell, p))
			}
		}
	}
}

// TestBuildCopiesLeaves: the tree owns its leaf bytes, so a producer may
// reuse one buffer and a caller may scribble on its values afterwards.
func TestBuildCopiesLeaves(t *testing.T) {
	values := raggedValues(37)
	want := mustBuild(t, values)
	buf := make([]byte, 0, 64)
	tree, err := BuildFunc(len(values), func(i int) []byte {
		buf = append(buf[:0], values[i]...)
		return buf
	})
	if err != nil {
		t.Fatalf("BuildFunc: %v", err)
	}
	for i := range buf[:cap(buf)] {
		buf[:cap(buf)][i] = 0xff
	}
	if !bytes.Equal(tree.Root(), want.Root()) {
		t.Fatal("root differs when the producer reuses its buffer")
	}
	for i, v := range values {
		got, err := tree.Leaf(i)
		if err != nil {
			t.Fatalf("Leaf(%d): %v", i, err)
		}
		if !bytes.Equal(got, v) || got == nil {
			t.Fatalf("Leaf(%d) = %x, want %x", i, got, v)
		}
		if cap(got) != len(got) {
			t.Fatalf("Leaf(%d) can grow into its neighbour", i)
		}
	}
}

// TestLeafSlabBound checks the arithmetic that keeps the 32-bit leaf offsets
// from wrapping, at the bound rather than with a 4 GiB build.
func TestLeafSlabBound(t *testing.T) {
	for _, tc := range []struct {
		size, add int
		ok        bool
	}{
		{0, 0, true},
		{0, math.MaxUint32, true},
		{math.MaxUint32 - 8, 8, true},
		{math.MaxUint32 - 8, 9, false},
		{math.MaxUint32, 1, false},
		{math.MaxUint32, 0, true},
		{math.MaxInt, math.MaxInt, false}, // the sum itself must not wrap
	} {
		if err := checkSlab(tc.size, tc.add); (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrLeafSlabTooLarge)) {
			t.Errorf("checkSlab(%d, %d) = %v, want ok=%v", tc.size, tc.add, err, tc.ok)
		}
	}
	// The reservation guess is capped, and never overflows on the way.
	if got := slabGuess(1<<14, 8); got != 1<<17 {
		t.Errorf("slabGuess(2^14, 8) = %d, want exact", got)
	}
	if got := slabGuess(math.MaxInt/2, 1<<20); got != slabGuessMax {
		t.Errorf("slabGuess(huge) = %d, want the cap %d", got, slabGuessMax)
	}
	if got := slabGuess(1<<20, 0); got != 0 {
		t.Errorf("slabGuess(empty first leaf) = %d, want 0", got)
	}
}
