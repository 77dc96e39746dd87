package main

import (
	"fmt"
	"io"

	"uncheatgrid/internal/analysis"
	"uncheatgrid/internal/core"
	"uncheatgrid/internal/workload"
)

// runFig3 reproduces the Section 3.3 storage/computation tradeoff sketched
// in Figure 3: the participant stores the tree only down to level H-ℓ
// (S = 2^(H-ℓ+1) slots) and pays 2^ℓ recomputations of f per audited
// sample, for a relative computation overhead rco = 2m/S that is
// independent of |D|.
func runFig3(w io.Writer) error {
	const m = 16
	fmt.Fprintf(w, "m = %d samples per audit; rco = m·2^ℓ/|D| = 2m/S\n\n", m)
	fmt.Fprintf(w, "%8s %4s %12s %14s %14s %14s\n",
		"|D|", "ℓ", "stored S", "f-evals/audit", "measured rco", "analytic rco")

	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		height := 0
		for c := 1; c < n; c *= 2 {
			height++
		}
		for _, ell := range []int{0, 2, 4, 6, 8} {
			if ell > height {
				continue
			}
			f := workload.NewSynthetic(uint64(n), 1, 64)
			var buf []byte
			prover, err := core.NewProver(n,
				func(i uint64) []byte { buf = f.AppendEval(buf[:0], i); return buf },
				core.WithSubtreeHeight(ell))
			if err != nil {
				return err
			}
			// One audit of m evenly spread samples.
			indices := make([]uint64, m)
			for k := range indices {
				indices[k] = uint64(k * n / m)
			}
			if _, err := prover.Respond(indices); err != nil {
				return err
			}
			measured := float64(prover.RebuiltLeaves()) / float64(n)
			wantRCO, err := analysis.RCO(m, prover.StoredNodes())
			if err != nil {
				return err
			}
			if ell == 0 {
				wantRCO = 0 // full tree stored: nothing rebuilt
			}
			fmt.Fprintf(w, "%8d %4d %12d %14d %14.6f %14.6f\n",
				n, ell, prover.StoredNodes(), prover.RebuiltLeaves(), measured, wantRCO)
		}
	}
	fmt.Fprintln(w, "\npaper spot value: m=64, S=2^32 slots → rco = 2^-25 (storage-independent of |D|)")
	rco, err := analysis.RCO(64, 1<<32)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "analytic check: RCO(64, 2^32) = %g = 2^-25 ✓\n", rco)
	return nil
}
