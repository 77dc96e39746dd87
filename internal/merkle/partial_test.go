package merkle

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func leafFunc(n int) func(i int) []byte {
	values := leafValues(n)
	return func(i int) []byte { return values[i] }
}

// prove reads leaf i's audit path off a partial tree: its one-sample
// multiproof, viewed as a Proof.
func prove(p *PartialTree, i int) (*Proof, error) {
	mp, err := p.ProveMulti([]uint64{uint64(i)})
	if err != nil {
		return nil, err
	}
	return &Proof{Index: i, N: mp.N, Value: mp.Values[0], Siblings: mp.Siblings}, nil
}

func TestPartialMatchesFullTree(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 16, 33, 64, 100} {
		full := mustBuild(t, leafValues(n))
		height := full.Height()
		for ell := 0; ell <= height; ell++ {
			t.Run(fmt.Sprintf("n=%d/ell=%d", n, ell), func(t *testing.T) {
				partial, err := NewPartial(n, ell, leafFunc(n))
				if err != nil {
					t.Fatalf("NewPartial: %v", err)
				}
				if !bytes.Equal(partial.Root(), full.Root()) {
					t.Fatal("partial root differs from full root")
				}
				for i := 0; i < n; i++ {
					wantProof, err := full.Prove(i)
					if err != nil {
						t.Fatalf("full Prove(%d): %v", i, err)
					}
					gotProof, err := prove(partial, i)
					if err != nil {
						t.Fatalf("partial Prove(%d): %v", i, err)
					}
					if !proofsEqual(gotProof, wantProof) {
						t.Fatalf("proof mismatch at leaf %d", i)
					}
					if err := Verify(full.Root(), gotProof); err != nil {
						t.Fatalf("Verify(%d): %v", i, err)
					}
				}
			})
		}
	}
}

func proofsEqual(a, b *Proof) bool {
	if a.Index != b.Index || a.N != b.N || !bytes.Equal(a.Value, b.Value) {
		return false
	}
	if len(a.Siblings) != len(b.Siblings) {
		return false
	}
	for i := range a.Siblings {
		if !bytes.Equal(a.Siblings[i], b.Siblings[i]) {
			return false
		}
	}
	return true
}

func TestPartialStorageMatchesPaperFormula(t *testing.T) {
	// Section 3.3: storing the tree up to level H-ℓ keeps S = 2^(H-ℓ+1)
	// node slots and each proof rebuilds one subtree of 2^ℓ leaves.
	const n = 256 // H = 8
	for ell := 0; ell <= 8; ell++ {
		partial, err := NewPartial(n, ell, leafFunc(n))
		if err != nil {
			t.Fatalf("NewPartial(ell=%d): %v", ell, err)
		}
		wantStored := 1 << (8 - ell + 1)
		if got := partial.StoredNodes(); got != wantStored {
			t.Errorf("ell=%d: StoredNodes() = %d, want %d", ell, got, wantStored)
		}

		partial.ResetCounters()
		if _, err := prove(partial, n/3); err != nil {
			t.Fatalf("Prove: %v", err)
		}
		wantEvals := int64(1 << ell)
		if ell == 0 {
			wantEvals = 0 // full tree stored: nothing to rebuild
		}
		if got := partial.RebuiltLeaves(); got != wantEvals {
			t.Errorf("ell=%d: RebuiltLeaves() = %d, want %d", ell, got, wantEvals)
		}
	}
}

func TestPartialRCOIndependentOfDomainSize(t *testing.T) {
	// The paper's key observation: rco = 2m/S depends only on the sample
	// count and the stored size, not on |D|.
	const m = 8
	const storedTarget = 64 // S = 64 slots → H-ℓ+1 = 6 → ℓ = H-5
	for _, n := range []int{256, 1024, 4096} {
		height := log2(nextPow2(n))
		ell := height - 5
		partial, err := NewPartial(n, ell, leafFunc(n))
		if err != nil {
			t.Fatalf("NewPartial(n=%d): %v", n, err)
		}
		if got := partial.StoredNodes(); got != storedTarget {
			t.Fatalf("n=%d: StoredNodes() = %d, want %d", n, got, storedTarget)
		}
		partial.ResetCounters()
		for s := 0; s < m; s++ {
			if _, err := prove(partial, (s*n)/m); err != nil {
				t.Fatalf("Prove: %v", err)
			}
		}
		gotRCO := float64(partial.RebuiltLeaves()) / float64(n)
		wantRCO := 2.0 * float64(m) / float64(storedTarget)
		if diff := gotRCO - wantRCO; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("n=%d: rco = %v, want %v", n, gotRCO, wantRCO)
		}
	}
}

func TestPartialRejectsInvalidInput(t *testing.T) {
	if _, err := NewPartial(0, 0, leafFunc(1)); !errors.Is(err, ErrEmptyTree) {
		t.Errorf("n=0: err = %v, want ErrEmptyTree", err)
	}
	if _, err := NewPartial(8, -1, leafFunc(8)); !errors.Is(err, ErrBadSubtreeHeight) {
		t.Errorf("ell=-1: err = %v, want ErrBadSubtreeHeight", err)
	}
	if _, err := NewPartial(8, 4, leafFunc(8)); !errors.Is(err, ErrBadSubtreeHeight) {
		t.Errorf("ell>H: err = %v, want ErrBadSubtreeHeight", err)
	}
	if _, err := NewPartial(8, 1, nil); !errors.Is(err, ErrNilLeaf) {
		t.Errorf("nil leafAt: err = %v, want ErrNilLeaf", err)
	}
	partial, err := NewPartial(8, 2, leafFunc(8))
	if err != nil {
		t.Fatalf("NewPartial: %v", err)
	}
	if _, err := prove(partial, 8); !errors.Is(err, ErrIndexOutOfRange) {
		t.Errorf("Prove(8): err = %v, want ErrIndexOutOfRange", err)
	}
}

func TestPartialConcurrentProofs(t *testing.T) {
	const n = 128
	full := mustBuild(t, leafValues(n))
	partial, err := NewPartial(n, 3, leafFunc(n))
	if err != nil {
		t.Fatalf("NewPartial: %v", err)
	}
	root := full.Root()
	done := make(chan error)
	for g := 0; g < 4; g++ {
		go func(offset int) {
			for i := offset; i < n; i += 4 {
				proof, err := prove(partial, i)
				if err != nil {
					done <- fmt.Errorf("Prove(%d): %w", i, err)
					return
				}
				if err := Verify(root, proof); err != nil {
					done <- fmt.Errorf("Verify(%d): %w", i, err)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestPartialQuickEquivalence(t *testing.T) {
	f := func(nSeed, iSeed uint16, ellSeed uint8) bool {
		n := int(nSeed%200) + 1
		i := int(iSeed) % n
		height := log2(nextPow2(n))
		ell := int(ellSeed) % (height + 1)
		full, err := Build(leafValues(n))
		if err != nil {
			return false
		}
		partial, err := NewPartial(n, ell, leafFunc(n))
		if err != nil {
			return false
		}
		want, err := full.Prove(i)
		if err != nil {
			return false
		}
		got, err := prove(partial, i)
		if err != nil {
			return false
		}
		return proofsEqual(got, want) && Verify(full.Root(), got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialParallelMatchesSequential pins that NewPartial accepts
// WithParallelism and ignores it: roots, proofs and rebuild accounting of a
// tree handed the option are bit-identical to one built without it, at a
// block size (2^ℓ = 2048) Build would shard.
func TestPartialParallelMatchesSequential(t *testing.T) {
	const n = 5000
	const ell = 11
	at := leafFunc(n) // slice-backed: safe for concurrent calls
	sequential, err := NewPartial(n, ell, at)
	if err != nil {
		t.Fatalf("NewPartial (sequential): %v", err)
	}
	parallel, err := NewPartial(n, ell, at, WithParallelism(4))
	if err != nil {
		t.Fatalf("NewPartial (parallel): %v", err)
	}
	if !bytes.Equal(sequential.Root(), parallel.Root()) {
		t.Fatal("parallel root differs from sequential root")
	}
	for _, i := range []int{0, 1, 1023, 2048, 4095, n - 1} {
		want, err := prove(sequential, i)
		if err != nil {
			t.Fatalf("sequential Prove(%d): %v", i, err)
		}
		got, err := prove(parallel, i)
		if err != nil {
			t.Fatalf("parallel Prove(%d): %v", i, err)
		}
		if !proofsEqual(got, want) {
			t.Fatalf("proof mismatch at leaf %d", i)
		}
	}
	if s, p := sequential.RebuiltLeaves(), parallel.RebuiltLeaves(); s != p {
		t.Errorf("rebuild accounting diverges: sequential %d, parallel %d", s, p)
	}
}

// TestPartialParallelConcurrentProves drives concurrent proof callers on a
// tree handed WithParallelism with 1024-leaf blocks: they share one rebuild
// scratch, which p.mu serializes.
func TestPartialParallelConcurrentProves(t *testing.T) {
	const n = 4096
	partial, err := NewPartial(n, 10, leafFunc(n), WithParallelism(4))
	if err != nil {
		t.Fatalf("NewPartial: %v", err)
	}
	full := mustBuild(t, leafValues(n))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 * 37 {
				got, err := prove(partial, i)
				if err != nil {
					t.Errorf("Prove(%d): %v", i, err)
					return
				}
				want, err := full.Prove(i)
				if err != nil {
					t.Errorf("full Prove(%d): %v", i, err)
					return
				}
				if !proofsEqual(got, want) {
					t.Errorf("proof mismatch at leaf %d", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// pairReusingLeaves serves the values of leafFunc(n) the way a caller that
// evaluates into scratch would: one buffer per aligned pair of leaves,
// overwritten by whichever of the two is asked for last: a builder that
// keeps the slice it was handed instead of copying it sees leaf 2k turn into
// leaf 2k+1.
func pairReusingLeaves(n int) func(i int) []byte {
	at := leafFunc(n)
	bufs := make([][]byte, (n+1)/2)
	return func(i int) []byte {
		bufs[i/2] = append(bufs[i/2][:0], at(i)...)
		return bufs[i/2]
	}
}

// TestPartialCopiesReusedLeafBuffer is the aliasing guard for the partial
// tree: built and audited through a buffer-reusing leafAt, over small blocks,
// the whole tree as one block, and blocks whose leaves outgrow the rebuild's
// first slab, it commits the same root and serves the same proofs as one
// built over slices that are never touched again — NewPartial's "leafAt may
// reuse its buffer" is BuildFunc's.
func TestPartialCopiesReusedLeafBuffer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, ell int
	}{
		{"sequential", 100, 3},
		{"full-height", 64, 6},
		{"large-block", 5000, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := NewPartial(tc.n, tc.ell, leafFunc(tc.n))
			if err != nil {
				t.Fatalf("NewPartial (fresh slices): %v", err)
			}
			got, err := NewPartial(tc.n, tc.ell, pairReusingLeaves(tc.n))
			if err != nil {
				t.Fatalf("NewPartial (reused buffers): %v", err)
			}
			if !bytes.Equal(got.Root(), want.Root()) {
				t.Fatal("root differs when leafAt reuses its buffer")
			}
			sampled := []uint64{0, 1, uint64(tc.n) / 2, uint64(tc.n) - 2, uint64(tc.n) - 1}
			for _, i := range sampled {
				wantProof, err := prove(want, int(i))
				if err != nil {
					t.Fatalf("Prove(%d) (fresh slices): %v", i, err)
				}
				gotProof, err := prove(got, int(i))
				if err != nil {
					t.Fatalf("Prove(%d) (reused buffers): %v", i, err)
				}
				if !proofsEqual(gotProof, wantProof) {
					t.Fatalf("proof of leaf %d differs when leafAt reuses its buffer", i)
				}
			}
			wantMulti, err := want.ProveMulti(sampled)
			if err != nil {
				t.Fatalf("ProveMulti (fresh slices): %v", err)
			}
			gotMulti, err := got.ProveMulti(sampled)
			if err != nil {
				t.Fatalf("ProveMulti (reused buffers): %v", err)
			}
			if !reflect.DeepEqual(gotMulti, wantMulti) {
				t.Fatal("multiproof differs when leafAt reuses its buffer")
			}
		})
	}
}
