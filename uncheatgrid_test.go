package uncheatgrid_test

import (
	"errors"
	"testing"

	"uncheatgrid"
)

// TestPublicAPIRoundTrip exercises the facade exactly as the README's
// quickstart does: commit, challenge, prove, verify.
func TestPublicAPIRoundTrip(t *testing.T) {
	f := uncheatgrid.NewSyntheticWorkload(1, 2, 64)
	const n = 256

	m, err := uncheatgrid.RequiredSamples(1e-4, 0.5, f.GuessProb())
	if err != nil {
		t.Fatalf("RequiredSamples: %v", err)
	}
	if m != 14 {
		t.Fatalf("m = %d, want 14 (paper §3.2)", m)
	}

	prover, err := uncheatgrid.NewProver(n, func(i uint64) []byte { return f.Eval(i) })
	if err != nil {
		t.Fatalf("NewProver: %v", err)
	}
	verifier, err := uncheatgrid.NewVerifier(prover.Commitment())
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	challenge, err := verifier.Challenge(m)
	if err != nil {
		t.Fatalf("Challenge: %v", err)
	}
	response, err := prover.Respond(challenge.Indices)
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}
	check := uncheatgrid.RecomputeCheck(func(i uint64) []byte { return f.Eval(i) })
	if err := verifier.Verify(challenge, response, check); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestPublicAPICheaterDetected drives a cheating producer through the
// facade and checks the exported error taxonomy.
func TestPublicAPICheaterDetected(t *testing.T) {
	f := uncheatgrid.NewSyntheticWorkload(2, 1, 64)
	producer, err := uncheatgrid.NewSemiHonest(f, 0.2, 3)
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	prover, err := uncheatgrid.NewProver(128, func(x uint64) []byte { return producer.AppendClaim(nil, x) })
	if err != nil {
		t.Fatalf("NewProver: %v", err)
	}
	verifier, err := uncheatgrid.NewVerifier(prover.Commitment())
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	challenge, err := verifier.Challenge(20)
	if err != nil {
		t.Fatalf("Challenge: %v", err)
	}
	response, err := prover.Respond(challenge.Indices)
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}
	err = verifier.Verify(challenge, response,
		uncheatgrid.RecomputeCheck(func(i uint64) []byte { return f.Eval(i) }))
	var cheatErr *uncheatgrid.CheatError
	if !errors.As(err, &cheatErr) {
		t.Fatalf("err = %v, want *CheatError", err)
	}
	if !errors.Is(err, uncheatgrid.ErrWrongOutput) && !errors.Is(err, uncheatgrid.ErrCommitmentMismatch) {
		t.Fatalf("err = %v, want one of the exported conviction classes", err)
	}
}

// TestPublicAPINonInteractive runs NI-CBS through the facade.
func TestPublicAPINonInteractive(t *testing.T) {
	f := uncheatgrid.NewSyntheticWorkload(3, 1, 64)
	chain, err := uncheatgrid.NewHashChain(2)
	if err != nil {
		t.Fatalf("NewHashChain: %v", err)
	}
	prover, err := uncheatgrid.NewProver(64, func(i uint64) []byte { return f.Eval(i) })
	if err != nil {
		t.Fatalf("NewProver: %v", err)
	}
	response, err := prover.RespondNonInteractive(chain, 8)
	if err != nil {
		t.Fatalf("RespondNonInteractive: %v", err)
	}
	verifier, err := uncheatgrid.NewVerifier(prover.Commitment())
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	err = verifier.VerifyNonInteractive(chain, 8, response,
		uncheatgrid.RecomputeCheck(func(i uint64) []byte { return f.Eval(i) }))
	if err != nil {
		t.Fatalf("VerifyNonInteractive: %v", err)
	}
}

// TestPublicAPISimulation runs a whole population through the facade.
func TestPublicAPISimulation(t *testing.T) {
	report, err := uncheatgrid.RunSim(uncheatgrid.SimConfig{
		Spec:         uncheatgrid.SchemeSpec{Kind: uncheatgrid.SchemeCBS, M: 20},
		Workload:     "synthetic",
		Seed:         1,
		TaskSize:     128,
		Tasks:        6,
		Honest:       2,
		SemiHonest:   2,
		HonestyRatio: 0.3,
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if report.CheatersDetected != 2 || report.HonestAccused != 0 {
		t.Fatalf("detection %d/%d, accused %d",
			report.CheatersDetected, report.CheatersTotal, report.HonestAccused)
	}
}

// TestPublicAPIWorkloadRegistry spot-checks the registry surface.
func TestPublicAPIWorkloadRegistry(t *testing.T) {
	names := uncheatgrid.WorkloadNames()
	if len(names) != 6 {
		t.Fatalf("WorkloadNames() = %v", names)
	}
	for _, name := range names {
		f, err := uncheatgrid.NewWorkload(name, 1)
		if err != nil {
			t.Fatalf("NewWorkload(%q): %v", name, err)
		}
		counted := uncheatgrid.CountWorkload(f)
		counted.Eval(0)
		if counted.Evals() != 1 {
			t.Fatalf("counter broken for %q", name)
		}
	}
}
