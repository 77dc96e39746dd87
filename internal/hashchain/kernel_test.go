package hashchain

import (
	"bytes"
	"crypto/sha256"
	"slices"
	"testing"
)

// TestDefaultChainMatchesGenericSHA256: the default chain walks on the
// shortsha kernel, a WithHasher(sha256.New) chain on crypto/sha256 through
// hash.Hash; every state, index and cursor step must agree.
func TestDefaultChainMatchesGenericSHA256(t *testing.T) {
	for _, iterations := range []int{1, 3} {
		kernel, err := New(iterations)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		generic, err := New(iterations, WithHasher(sha256.New))
		if err != nil {
			t.Fatalf("New(WithHasher): %v", err)
		}
		seed := []byte("uncheatgrid root")
		if got, want := kernel.Apply(seed), generic.Apply(seed); !bytes.Equal(got, want) {
			t.Fatalf("iterations=%d: Apply = %x, want %x", iterations, got, want)
		}
		for _, m := range []int{1, 32} {
			got, err := kernel.Walk(seed, m)
			if err != nil {
				t.Fatalf("Walk: %v", err)
			}
			want, _ := generic.Walk(seed, m)
			if !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("iterations=%d m=%d: Walk differs", iterations, m)
			}
			gotIdx, err := kernel.SampleIndices(seed, m, 1<<14)
			if err != nil {
				t.Fatalf("SampleIndices: %v", err)
			}
			wantIdx, _ := generic.SampleIndices(seed, m, 1<<14)
			if !slices.Equal(gotIdx, wantIdx) {
				t.Fatalf("iterations=%d m=%d: SampleIndices = %v, want %v", iterations, m, gotIdx, wantIdx)
			}
		}
		kc, _ := kernel.NewCursor(seed)
		gc, _ := generic.NewCursor(seed)
		for w := 0; w < 4; w++ {
			root := sha256.Sum256([]byte{byte(w)})
			if err := kc.Advance(root[:]); err != nil {
				t.Fatalf("Advance: %v", err)
			}
			_ = gc.Advance(root[:])
			if !bytes.Equal(kc.State(), gc.State()) {
				t.Fatalf("iterations=%d: cursor state differs after window %d", iterations, w)
			}
		}
	}
}
