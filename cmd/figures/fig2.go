package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"uncheatgrid/internal/analysis"
	"uncheatgrid/internal/cheat"
	"uncheatgrid/internal/core"
	"uncheatgrid/internal/workload"
)

// runFig2 reproduces Figure 2: the required sample size against the honesty
// ratio for q = 0 and q = 0.5 at ε = 1e-4, including the paper's spot
// values m(r=0.5, q=0.5) = 33 and m(r=0.5, q≈0) = 14, cross-checked by
// running the live protocol at the computed m.
func runFig2(w io.Writer) error {
	const eps = 1e-4
	fmt.Fprintf(w, "required m so that Pr[cheat succeeds] = (r+(1-r)q)^m < ε = %g\n\n", eps)
	fmt.Fprintf(w, "%8s  %10s  %10s  %22s\n", "r", "m (q=0)", "m (q=0.5)", "measured survival@m(q=0)")

	for _, r := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		m0, err := analysis.RequiredSamples(eps, r, 0)
		if err != nil {
			return err
		}
		mHalf, err := analysis.RequiredSamples(eps, r, 0.5)
		if err != nil {
			return err
		}
		// n must dominate m or sampling with replacement revisits leaves
		// and the independence assumption of Theorem 3 degrades.
		survival, err := measuredSurvivalWithQ(r, 64, m0, 400, 1024)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8.1f  %10d  %10d  %18.4f (≈0 ✓)\n", r, m0, mHalf, survival)
	}
	fmt.Fprintln(w, "\npaper spot values: m(r=0.5, q=0.5) = 33, m(r=0.5, q≈0) = 14")
	return nil
}

// measuredSurvivalWithQ runs `rounds` independent CBS exchanges against a
// semi-honest cheater with ratio r and m samples over an n-input domain
// with a workload of `bits` output bits (q = 2^-bits), returning the
// fraction that escaped detection.
func measuredSurvivalWithQ(r float64, bits uint, m, rounds, n int) (float64, error) {
	survived := 0
	for round := 0; round < rounds; round++ {
		f := workload.NewSynthetic(uint64(round), 1, bits)
		producer, err := cheat.NewSemiHonest(f, r, uint64(round)*2654435761)
		if err != nil {
			return 0, err
		}
		var buf []byte
		prover, err := core.NewProver(n,
			func(i uint64) []byte { buf = producer.AppendClaim(buf[:0], i); return buf })
		if err != nil {
			return 0, err
		}
		verifier, err := core.NewVerifier(prover.Commitment(),
			core.WithRand(rand.New(rand.NewSource(int64(round)+1))))
		if err != nil {
			return 0, err
		}
		ch, err := verifier.Challenge(m)
		if err != nil {
			return 0, err
		}
		resp, err := prover.Respond(ch.Indices)
		if err != nil {
			return 0, err
		}
		err = verifier.Verify(ch, resp,
			core.RecomputeCheck(func(i uint64) []byte { buf = f.AppendEval(buf[:0], i); return buf }))
		var cheatErr *core.CheatError
		switch {
		case err == nil:
			survived++
		case errors.As(err, &cheatErr):
			// caught, as expected at this m
		default:
			return 0, err
		}
	}
	return float64(survived) / float64(rounds), nil
}
