package main

import (
	"fmt"
	"io"

	"uncheatgrid/internal/core"
	"uncheatgrid/internal/workload"
)

// runFig1 reproduces Figure 1: a 16-leaf Merkle tree over f(x1..x16), the
// commitment Φ(R), and the verification of sample x3 using the sibling
// values Φ(L4), Φ(A), Φ(D), Φ(F).
func runFig1(w io.Writer) error {
	f := workload.NewPassword(2004, 16)
	const n = 16

	var buf []byte
	eval := func(i uint64) []byte { buf = f.AppendEval(buf[:0], i); return buf }
	prover, err := core.NewProver(n, eval)
	if err != nil {
		return err
	}
	commitment := prover.Commitment()
	fmt.Fprintf(w, "participant builds a %d-leaf Merkle tree with Φ(Li) = f(xi)\n", n)
	fmt.Fprintf(w, "commitment Φ(R) = %x\n", commitment.Root)

	// Sample x3 is leaf index 2. For one sample the response's multiproof is
	// the audit path: H = 4 sibling values, bottom-up, the nodes labeled L4,
	// A, D, F in the paper's figure.
	resp, err := prover.Respond([]uint64{2})
	if err != nil {
		return err
	}
	proof := resp.Proof
	fmt.Fprintf(w, "sample x3 (leaf index 2): participant sends f(x3) = %x…\n", proof.Values[0][:8])
	labels := []string{"Φ(L4)", "Φ(A) ", "Φ(D) ", "Φ(F) "}
	for i, sib := range proof.Siblings {
		fmt.Fprintf(w, "  sibling %d %s = %x…\n", i+1, labels[i], sib[:8])
	}

	verifier, err := core.NewVerifier(commitment)
	if err != nil {
		return err
	}
	err = verifier.Verify(core.Challenge{Indices: []uint64{2}}, resp, core.RecomputeCheck(eval))
	if err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	fmt.Fprintln(w, "supervisor reconstructs Φ(R') from f(x3) and the siblings: Φ(R') = Φ(R) ✓")

	// The flip side: splicing a different (even correct-looking) value into
	// the proof fails to reconstruct the committed root.
	forged := proof
	forged.Values = [][]byte{f.Eval(9)}
	err = verifier.Verify(core.Challenge{Indices: []uint64{2}},
		&core.Response{Proof: forged}, core.AcceptAnyOutput)
	if err == nil {
		return fmt.Errorf("forged leaf value was accepted")
	}
	fmt.Fprintf(w, "forged f(x3) rejected: %v\n", err)
	return nil
}
