package merkle

import (
	"bytes"
	"crypto/md5"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// buildParallelDirect constructs a tree through the parallel fill path with
// the given worker count, bypassing the size gate of buildWorkers so tiny
// and oddly-shaped domains exercise the sharding logic too.
func buildParallelDirect(t testing.TB, n, workers int, at func(i int) []byte, opts ...Option) *Tree {
	t.Helper()
	return rebuildParallelDirect(t, new(Tree), n, workers, at, opts...)
}

// rebuildParallelDirect is buildParallelDirect into a tree that may have
// been built before.
func rebuildParallelDirect(t testing.TB, tree *Tree, n, workers int, at func(i int) []byte, opts ...Option) *Tree {
	t.Helper()
	if err := tree.layout(n, buildOptions(opts)); err != nil {
		t.Fatalf("layout(n=%d): %v", n, err)
	}
	if workers > tree.cap/2 {
		workers = tree.cap / 2
	}
	if workers < 1 {
		workers = 1
	}
	if err := tree.fillParallel(PerLeaf(at), workers); err != nil {
		t.Fatalf("fillParallel(n=%d, workers=%d): %v", n, workers, err)
	}
	return tree
}

// TestParallelRootsMatchSequentialQuick is the core equivalence property:
// for random domain sizes (non-powers of two included) and worker counts,
// the parallel builder produces a bit-identical tree to the sequential one.
func TestParallelRootsMatchSequentialQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(816))
	property := func(nSeed uint16, wSeed uint8) bool {
		n := int(nSeed)%4096 + 2
		workers := int(wSeed)%8 + 2
		values := make([][]byte, n)
		for i := range values {
			values[i] = make([]byte, rng.Intn(48)+1)
			rng.Read(values[i])
		}
		at := func(i int) []byte { return values[i] }
		seq, err := BuildFunc(n, at)
		if err != nil {
			t.Fatalf("sequential BuildFunc(%d): %v", n, err)
		}
		par := buildParallelDirect(t, n, workers, at)
		if !bytes.Equal(seq.Root(), par.Root()) {
			t.Logf("root mismatch at n=%d workers=%d", n, workers)
			return false
		}
		// The whole heap must agree, not just the root: proofs read
		// interior nodes.
		for i := 1; i < 2*seq.cap; i++ {
			if !bytes.Equal(seq.node(i), par.node(i)) {
				t.Logf("node %d mismatch at n=%d workers=%d", i, n, workers)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelPublicPathMatchesSequential drives the exported option on a
// domain large enough to clear the size gate, for several worker counts and
// a non-power-of-two n.
func TestParallelPublicPathMatchesSequential(t *testing.T) {
	const n = parallelMinLeaves + 321
	values := leafValues(n)
	seq := mustBuild(t, values)
	for _, p := range []int{2, 3, runtime.NumCPU()} {
		par := mustBuild(t, values, WithParallelism(p))
		if !bytes.Equal(seq.Root(), par.Root()) {
			t.Fatalf("WithParallelism(%d): root differs from sequential build", p)
		}
		// Proofs from the parallel tree must verify exactly like
		// sequential ones.
		for _, i := range []int{0, 1, n / 2, n - 1} {
			proof, err := par.Prove(i)
			if err != nil {
				t.Fatalf("Prove(%d): %v", i, err)
			}
			if err := Verify(seq.Root(), proof); err != nil {
				t.Fatalf("parallel proof %d rejected against sequential root: %v", i, err)
			}
		}
	}
}

// TestParallelRespectsHasherOption checks option plumbing: a non-default
// hash must flow into the worker pool.
func TestParallelRespectsHasherOption(t *testing.T) {
	const n = parallelMinLeaves + 7
	values := leafValues(n)
	seq := mustBuild(t, values, WithHasher(md5.New))
	par := mustBuild(t, values, WithHasher(md5.New), WithParallelism(4))
	if !bytes.Equal(seq.Root(), par.Root()) {
		t.Fatal("md5 parallel root differs from md5 sequential root")
	}
	if bytes.Equal(seq.Root(), mustBuild(t, values).Root()) {
		t.Fatal("md5 root unexpectedly equals sha256 root")
	}
}

// TestParallelCallsEachLeafOnce verifies the exactly-once contract of
// BuildFunc under a worker pool.
func TestParallelCallsEachLeafOnce(t *testing.T) {
	const n = parallelMinLeaves + 100
	counts := make([]int64, n)
	values := leafValues(n)
	_, err := BuildFunc(n, func(i int) []byte {
		atomic.AddInt64(&counts[i], 1)
		return values[i]
	}, WithParallelism(runtime.NumCPU()))
	if err != nil {
		t.Fatalf("BuildFunc: %v", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("leaf %d evaluated %d times, want exactly 1", i, c)
		}
	}
}

// TestParallelNilLeafError verifies nil-leaf detection survives sharding.
func TestParallelNilLeafError(t *testing.T) {
	const n = parallelMinLeaves + 5
	values := leafValues(n)
	bad := n - 3
	_, err := BuildFunc(n, func(i int) []byte {
		if i == bad {
			return nil
		}
		return values[i]
	}, WithParallelism(4))
	if err == nil {
		t.Fatal("BuildFunc accepted a nil leaf under parallelism")
	}
}

// TestBuildWorkersClamps pins the resolution rules: sequential below the
// size gate, never more workers than CPUs or half the leaves.
func TestBuildWorkersClamps(t *testing.T) {
	if got := buildWorkers(8, parallelMinLeaves/2); got != 1 {
		t.Fatalf("small tree: workers = %d, want 1", got)
	}
	if got := buildWorkers(0, 1<<20); got != 1 {
		t.Fatalf("zero request: workers = %d, want 1", got)
	}
	if got := buildWorkers(1<<20, 1<<20); got > runtime.NumCPU() {
		t.Fatalf("workers = %d exceeds NumCPU %d", got, runtime.NumCPU())
	}
}
