package analysis

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"uncheatgrid/internal/merkle"
)

// TestExpectedMultiproofSiblingsSpotValues pins the closed form where it can
// be worked by hand, and at the benchmark's shapes.
func TestExpectedMultiproofSiblingsSpotValues(t *testing.T) {
	for _, tc := range []struct {
		n, m int64
		want float64
	}{
		{1, 5, 0}, // a one-leaf tree has no siblings
		{2, 1, 1}, // one sample: its path, H siblings
		{1024, 1, 10},
		{1 << 62, 1, 62},
		{2, 2, 0.5},  // both draws on one leaf (probability 1/2) needs the other
		{4, 2, 1.75}, // same leaf (1/4): 2; the two leaves of a pair (1/4): 1; across pairs (1/2): 2
		{64, 8, 18.9},
		{256, 16, 51.9},
		{16384, 32, 260.3},
		// Far more samples than leaves: nearly every leaf is sampled.
		{64, 1 << 20, 0},
	} {
		got := ExpectedMultiproofSiblings(tc.n, tc.m)
		if math.IsNaN(got) || math.Abs(got-tc.want) > 0.05+0.002*tc.want {
			t.Errorf("ExpectedMultiproofSiblings(%d, %d) = %v, want %v", tc.n, tc.m, got, tc.want)
		}
		if paths := float64(tc.m * treeHeight(tc.n)); got > paths {
			t.Errorf("ExpectedMultiproofSiblings(%d, %d) = %v exceeds the %v of separate paths", tc.n, tc.m, got, paths)
		}
	}
	// Far below the top of a huge tree no two samples share a node, so each
	// further level costs m siblings — and 1 - 2^-62 must not round to 1 on
	// the way.
	if step := ExpectedMultiproofSiblings(1<<62, 50) - ExpectedMultiproofSiblings(1<<61, 50); math.Abs(step-50) > 1e-6 {
		t.Errorf("level 62 of a 2^62-leaf tree adds %v siblings for 50 samples, want 50", step)
	}
	if got := ExpectedMultiproofSiblings(0, 5) + ExpectedMultiproofSiblings(8, 0) + CBSMultiproofBytes(0, 8, 32, 5); got != 0 {
		t.Errorf("degenerate inputs give %v, want 0", got)
	}
}

// TestMultiproofModelMatchesProveMulti makes the cost model a checked
// column: over seeded Monte-Carlo challenges against the real prover, the
// mean sibling count sits within 2% of the closed form, the mean encoded
// upload within 2% of CBSMultiproofBytes, and every single response under
// the paper's bound.
func TestMultiproofModelMatchesProveMulti(t *testing.T) {
	const resultSize, digestSize = 8, 32
	for _, tc := range []struct {
		n, m, trials int
		boundOnly    bool // too few siblings per proof for a 2% mean at this trial count
	}{
		{n: 64, m: 8, trials: 4000},
		{n: 256, m: 16, trials: 2000},
		{n: 16384, m: 32, trials: 400},
		{n: 4096, m: 50, trials: 400},
		{n: 64, m: 1, trials: 64, boundOnly: true},
		{n: 64, m: 200, trials: 64, boundOnly: true},
		{n: 2, m: 1, trials: 8, boundOnly: true},
	} {
		tree, err := merkle.BuildFunc(tc.n, func(i int) []byte {
			return binary.BigEndian.AppendUint64(nil, uint64(i)*0x9e3779b97f4a7c15)
		})
		if err != nil {
			t.Fatalf("BuildFunc(%d): %v", tc.n, err)
		}
		bound := CBSCommunicationBytes(int64(tc.n), resultSize, digestSize, int64(tc.m))
		rng := rand.New(rand.NewSource(int64(tc.n)*1000 + int64(tc.m)))
		challenged := make([]uint64, tc.m)
		var siblings, bytes float64
		for trial := 0; trial < tc.trials; trial++ {
			for i := range challenged {
				challenged[i] = uint64(rng.Intn(tc.n))
			}
			mp, err := tree.ProveMulti(challenged)
			if err != nil {
				t.Fatalf("ProveMulti: %v", err)
			}
			upload := digestSize + mp.EncodedSize()
			if int64(upload) > bound {
				t.Fatalf("n=%d m=%d: upload of %d B exceeds the paper's bound of %d B for %v",
					tc.n, tc.m, upload, bound, challenged)
			}
			siblings += float64(len(mp.Siblings))
			bytes += float64(upload)
		}
		if tc.boundOnly {
			continue
		}
		siblings /= float64(tc.trials)
		bytes /= float64(tc.trials)
		if want := ExpectedMultiproofSiblings(int64(tc.n), int64(tc.m)); math.Abs(siblings-want) > 0.02*want {
			t.Errorf("n=%d m=%d: %.2f siblings per proof over %d trials, closed form %.2f", tc.n, tc.m, siblings, tc.trials, want)
		}
		model := CBSMultiproofBytes(int64(tc.n), resultSize, digestSize, int64(tc.m))
		t.Logf("n=%d m=%d: %.2f siblings (closed form %.2f of %d), %.1f B (model %.1f B, paper's bound %d B)",
			tc.n, tc.m, siblings, ExpectedMultiproofSiblings(int64(tc.n), int64(tc.m)), int64(tc.m)*treeHeight(int64(tc.n)), bytes, model, bound)
		if math.Abs(bytes-model) > 0.02*model {
			t.Errorf("n=%d m=%d: %.1f B per upload over %d trials, model %.1f B", tc.n, tc.m, bytes, tc.trials, model)
		}
		if model >= float64(bound) {
			t.Errorf("n=%d m=%d: multiproof model %.1f B is not below the paper's bound %d B", tc.n, tc.m, model, bound)
		}
	}
}
