package main

import (
	"fmt"
	"io"
	"time"

	"uncheatgrid/internal/workload"
)

// verifySeed and verifyInputs fix the factoring workload runVerify times:
// the semiprimes N(0..verifyInputs-1) of seed verifySeed.
const (
	verifySeed   = 2004
	verifyInputs = 512
)

// runVerify reproduces the Step 4 remark of Section 3.1: "there are many
// computations whose verification is much less expensive than the
// computations themselves. For example, factoring large numbers is an
// expensive computation, but verifying the factoring results is trivial."
// We time the factoring workload's Eval (trial division) against its
// VerifyOutput (two multiplications plus 16-bit primality checks).
func runVerify(w io.Writer) error {
	f := workload.NewFactor(verifySeed)
	verifier, ok := workload.AsOutputVerifier(f)
	if !ok {
		return fmt.Errorf("factor workload lost its verifier")
	}

	const inputs = verifyInputs
	outputs := make([][]byte, inputs)
	var slab []byte // every output back to back; outputs[x] is a view

	evalStart := time.Now()
	for x := uint64(0); x < inputs; x++ {
		start := len(slab)
		slab = f.AppendEval(slab, x)
		outputs[x] = slab[start:]
	}
	evalTime := time.Since(evalStart)

	verifyStart := time.Now()
	for x := uint64(0); x < inputs; x++ {
		if !verifier.VerifyOutput(x, outputs[x]) {
			return fmt.Errorf("verification rejected Eval's own output at %d", x)
		}
	}
	verifyTime := time.Since(verifyStart)

	fmt.Fprintf(w, "factor workload over %d semiprimes (16-bit prime factors):\n", inputs)
	fmt.Fprintf(w, "  compute (trial division): %12v  (%8.2f µs/input)\n",
		evalTime, float64(evalTime.Microseconds())/inputs)
	fmt.Fprintf(w, "  verify  (multiply+check): %12v  (%8.2f µs/input)\n",
		verifyTime, float64(verifyTime.Microseconds())/inputs)
	ratio := float64(evalTime) / float64(verifyTime)
	fmt.Fprintf(w, "  compute/verify ratio: %.0fx\n", ratio)
	fmt.Fprintln(w, "\nthe supervisor's per-sample check (Step 4 case 1) need not recompute f.")
	return nil
}
