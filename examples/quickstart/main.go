// Quickstart: one complete CBS exchange (commit → challenge → prove →
// verify) against an honest participant and a cheating one, using the
// public uncheatgrid API.
package main

import (
	"errors"
	"fmt"
	"log"

	"uncheatgrid"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The task: evaluate f on n = 1024 inputs. Here f is the tunable
	// synthetic workload; any deterministic function works.
	f := uncheatgrid.NewSyntheticWorkload(42, 4, 64)
	const n = 1024

	// Eq. 3: how many samples catch a participant that did half the work,
	// with certainty 1 - 1e-4? (q = 0: guessing a 64-bit output is hopeless.)
	m, err := uncheatgrid.RequiredSamples(1e-4, 0.5, f.GuessProb())
	if err != nil {
		return err
	}
	fmt.Printf("sample size m = %d (ε=1e-4, r=0.5, q=%g)\n\n", m, f.GuessProb())

	// Prover and check copy or compare each value as it is produced, so one
	// buffer serves every evaluation.
	var buf []byte
	eval := func(i uint64) []byte { buf = f.AppendEval(buf[:0], i); return buf }
	check := uncheatgrid.RecomputeCheck(eval)

	// --- An honest participant passes (Theorem 1). ---
	honest, err := uncheatgrid.NewProver(n, eval)
	if err != nil {
		return err
	}
	verdict, err := audit(honest, m, check)
	if err != nil {
		return err
	}
	fmt.Printf("honest participant:   %s\n", verdict)

	// --- A cheater that computed only 60%% is caught (Theorems 2-3). ---
	cheater, err := uncheatgrid.NewSemiHonest(f, 0.6, 7)
	if err != nil {
		return err
	}
	lazyProver, err := uncheatgrid.NewProver(n,
		func(i uint64) []byte { buf = cheater.AppendClaim(buf[:0], i); return buf })
	if err != nil {
		return err
	}
	verdict, err = audit(lazyProver, m, check)
	if err != nil {
		return err
	}
	fmt.Printf("cheater (r = 0.6):    %s\n", verdict)
	return nil
}

// audit runs Steps 1-4 of the CBS scheme against a prover and renders the
// outcome.
func audit(prover *uncheatgrid.Prover, m int, check uncheatgrid.CheckFunc) (string, error) {
	// Step 1: the participant commits to all n results (Merkle root).
	verifier, err := uncheatgrid.NewVerifier(prover.Commitment())
	if err != nil {
		return "", err
	}
	// Step 2: the supervisor draws m uniform sample indices.
	challenge, err := verifier.Challenge(m)
	if err != nil {
		return "", err
	}
	// Step 3: the participant returns f(x) per sample plus the sibling
	// values on their audit paths, as one multiproof.
	response, err := prover.Respond(challenge.Indices)
	if err != nil {
		return "", err
	}
	// Step 4: the supervisor checks each output and reconstructs the root.
	err = verifier.Verify(challenge, response, check)
	var cheat *uncheatgrid.CheatError
	switch {
	case err == nil:
		return "ACCEPTED (all samples consistent with the commitment)", nil
	case errors.As(err, &cheat):
		return fmt.Sprintf("REJECTED (%v)", err), nil
	default:
		return "", err
	}
}
