//go:build !race

package hashchain

import (
	"crypto/sha256"
	"testing"
)

// TestSampleIndicesAllocs pins the Eq. 4 derivation to one hash state, one
// chain state and the index slice, whatever m and the per-step iteration
// count are: a walk advances its state in place. Excluded from race builds,
// whose runtime allocates on its own.
func TestSampleIndicesAllocs(t *testing.T) {
	root := sha256.Sum256([]byte("root"))
	for _, iterations := range []int{1, 8} {
		chain, err := New(iterations)
		if err != nil {
			t.Fatalf("New(%d): %v", iterations, err)
		}
		perM := make(map[int]float64)
		for _, m := range []int{32, 512} {
			perM[m] = testing.AllocsPerRun(20, func() {
				if _, err := chain.SampleIndices(root[:], m, 1<<14); err != nil {
					t.Fatalf("SampleIndices: %v", err)
				}
			})
		}
		if perM[32] > 3 || perM[512] != perM[32] {
			t.Errorf("iterations=%d: SampleIndices allocates %.0f objects at m=32 and %.0f at m=512, want <= 3 and equal",
				iterations, perM[32], perM[512])
		}
	}
}

// TestApplyAllocs pins one application of g to its hash state and its
// result.
func TestApplyAllocs(t *testing.T) {
	chain, err := New(16)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seed := []byte("seed")
	if allocs := testing.AllocsPerRun(20, func() { _ = chain.Apply(seed) }); allocs > 2 {
		t.Fatalf("Apply allocates %.0f objects, want <= 2", allocs)
	}
}
