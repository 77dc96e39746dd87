package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"uncheatgrid/internal/cheat"
	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/workload"
)

// testFunction returns a cheap deterministic workload for protocol tests.
func testFunction(seed uint64) workload.Function {
	return workload.NewSynthetic(seed, 1, 64)
}

func honestProver(t *testing.T, f workload.Function, n int, opts ...Option) *Prover {
	t.Helper()
	p, err := NewProver(n, func(i uint64) []byte { return f.Eval(i) }, opts...)
	if err != nil {
		t.Fatalf("NewProver: %v", err)
	}
	return p
}

func seededVerifier(t *testing.T, c Commitment, seed int64, opts ...Option) *Verifier {
	t.Helper()
	opts = append(opts, WithRand(rand.New(rand.NewSource(seed))))
	v, err := NewVerifier(c, opts...)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	return v
}

func recompute(f workload.Function) CheckFunc {
	return RecomputeCheck(func(i uint64) []byte { return f.Eval(i) })
}

// TestSoundness is Theorem 1: an honest participant always convinces the
// supervisor, across domain sizes and sample counts.
func TestSoundness(t *testing.T) {
	f := testFunction(1)
	for _, n := range []int{1, 2, 7, 64, 100, 257} {
		for _, m := range []int{1, 5, 33} {
			t.Run(fmt.Sprintf("n=%d,m=%d", n, m), func(t *testing.T) {
				prover := honestProver(t, f, n)
				verifier := seededVerifier(t, prover.Commitment(), int64(n*1000+m))
				ch, err := verifier.Challenge(m)
				if err != nil {
					t.Fatalf("Challenge: %v", err)
				}
				resp, err := prover.Respond(ch.Indices)
				if err != nil {
					t.Fatalf("Respond: %v", err)
				}
				if err := verifier.Verify(ch, resp, recompute(f)); err != nil {
					t.Fatalf("honest participant rejected: %v", err)
				}
			})
		}
	}
}

// TestUncheatability is Theorem 2: a participant that committed a wrong
// value for a sampled leaf cannot produce an accepting proof, even when it
// supplies the correct f(x) after learning the sample.
func TestUncheatability(t *testing.T) {
	f := testFunction(2)
	const n = 64
	const badIndex = 17

	// The cheater commits a guess at badIndex.
	lie := []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0}
	cheater, err := NewProver(n, func(i uint64) []byte {
		if i == badIndex {
			return lie
		}
		return f.Eval(i)
	})
	if err != nil {
		t.Fatalf("NewProver: %v", err)
	}
	verifier := seededVerifier(t, cheater.Commitment(), 7)

	t.Run("lying response fails output check", func(t *testing.T) {
		// The cheater answers with what it committed: the wrong value.
		resp, err := cheater.Respond([]uint64{badIndex})
		if err != nil {
			t.Fatalf("Respond: %v", err)
		}
		err = verifier.Verify(Challenge{Indices: []uint64{badIndex}}, resp, recompute(f))
		var cheatErr *CheatError
		if !errors.As(err, &cheatErr) {
			t.Fatalf("Verify: err = %v, want *CheatError", err)
		}
		if !errors.Is(err, ErrWrongOutput) {
			t.Fatalf("err = %v, want ErrWrongOutput", err)
		}
		if cheatErr.Index != badIndex {
			t.Fatalf("convicted at %d, want %d", cheatErr.Index, badIndex)
		}
	})

	t.Run("post-hoc correct value fails commitment check", func(t *testing.T) {
		// The cheater computes the true f(x) after learning the sample and
		// splices it into the proof. The root no longer reconstructs.
		resp, err := cheater.Respond([]uint64{badIndex})
		if err != nil {
			t.Fatalf("Respond: %v", err)
		}
		resp.Proof.Values[0] = f.Eval(badIndex)
		err = verifier.Verify(Challenge{Indices: []uint64{badIndex}}, resp, recompute(f))
		if !errors.Is(err, ErrCommitmentMismatch) {
			t.Fatalf("err = %v, want ErrCommitmentMismatch", err)
		}
	})

	t.Run("convicted at the first exposing sample", func(t *testing.T) {
		// Honest samples before and after, the lie challenged twice: the
		// output check runs in challenge order and stops at the lie.
		ch := Challenge{Indices: []uint64{40, 3, badIndex, 9, badIndex}}
		resp, err := cheater.Respond(ch.Indices)
		if err != nil {
			t.Fatalf("Respond: %v", err)
		}
		var checked []uint64
		check := func(i uint64, out []byte) error {
			checked = append(checked, i)
			return recompute(f)(i, out)
		}
		var cheatErr *CheatError
		if err := verifier.Verify(ch, resp, check); !errors.As(err, &cheatErr) || !errors.Is(err, ErrWrongOutput) {
			t.Fatalf("Verify: err = %v, want a *CheatError with ErrWrongOutput", err)
		}
		if cheatErr.Index != badIndex || len(checked) != 3 || checked[2] != badIndex {
			t.Fatalf("convicted at %d after checking %v, want %d after [40 3 %d]", cheatErr.Index, checked, badIndex, badIndex)
		}
	})

	t.Run("a forged sample convicts the response as a whole", func(t *testing.T) {
		// A value consistent with f but not with the commitment, in the
		// middle of honest samples: every output check passes, the one root
		// reconstruction fails, and the verdict names the first challenged
		// index.
		ch := Challenge{Indices: []uint64{40, badIndex, 3}}
		resp, err := cheater.Respond(ch.Indices)
		if err != nil {
			t.Fatalf("Respond: %v", err)
		}
		at, ok := slices.BinarySearch(resp.Proof.Indices, badIndex)
		if !ok {
			t.Fatalf("response does not cover %d", badIndex)
		}
		resp.Proof.Values[at] = f.Eval(badIndex)
		var cheatErr *CheatError
		if err := verifier.Verify(ch, resp, recompute(f)); !errors.As(err, &cheatErr) || !errors.Is(err, ErrCommitmentMismatch) {
			t.Fatalf("Verify: err = %v, want a *CheatError with ErrCommitmentMismatch", err)
		}
		if cheatErr.Index != 40 {
			t.Fatalf("CheatError.Index = %d, want the first challenged index 40", cheatErr.Index)
		}
	})

	t.Run("unsampled lies survive", func(t *testing.T) {
		// Sampling elsewhere does not convict — the probabilistic gap the
		// sample-size formula closes.
		resp, err := cheater.Respond([]uint64{3, 40})
		if err != nil {
			t.Fatalf("Respond: %v", err)
		}
		if err := verifier.Verify(Challenge{Indices: []uint64{3, 40}}, resp, recompute(f)); err != nil {
			t.Fatalf("Verify on honest leaves: %v", err)
		}
	})
}

func TestProverValidation(t *testing.T) {
	f := testFunction(3)
	claim := func(i uint64) []byte { return f.Eval(i) }
	if _, err := NewProver(0, claim); !errors.Is(err, ErrBadDomain) {
		t.Errorf("n=0: err = %v, want ErrBadDomain", err)
	}
	if _, err := NewProver(4, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("nil claim: err = %v, want ErrProtocol", err)
	}
	if _, err := NewProver(4, claim, WithSubtreeHeight(5)); err == nil {
		t.Error("subtree height beyond tree height accepted")
	}

	p := honestProver(t, f, 8)
	if _, err := p.Respond(nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty challenge: err = %v, want ErrProtocol", err)
	}
	if _, err := p.Respond([]uint64{8}); !errors.Is(err, ErrProtocol) {
		t.Errorf("out-of-range index: err = %v, want ErrProtocol", err)
	}
	if p.N() != 8 {
		t.Errorf("N() = %d, want 8", p.N())
	}
}

func TestVerifierValidation(t *testing.T) {
	f := testFunction(4)
	p := honestProver(t, f, 8)

	if _, err := NewVerifier(Commitment{Root: nil, N: 8}); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty root: err = %v, want ErrProtocol", err)
	}
	if _, err := NewVerifier(Commitment{Root: []byte{1}, N: 0}); !errors.Is(err, ErrBadDomain) {
		t.Errorf("n=0: err = %v, want ErrBadDomain", err)
	}

	v := seededVerifier(t, p.Commitment(), 1)
	if _, err := v.Challenge(0); !errors.Is(err, ErrBadSampleCount) {
		t.Errorf("m=0: err = %v, want ErrBadSampleCount", err)
	}

	ch, err := v.Challenge(2)
	if err != nil {
		t.Fatalf("Challenge: %v", err)
	}
	resp, err := p.Respond(ch.Indices)
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}

	if err := v.Verify(ch, nil, recompute(f)); !errors.Is(err, ErrProtocol) {
		t.Errorf("nil response: err = %v, want ErrProtocol", err)
	}
	if err := v.Verify(ch, resp, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("nil check: err = %v, want ErrProtocol", err)
	}
	if err := v.Verify(Challenge{}, resp, recompute(f)); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty challenge: err = %v, want ErrProtocol", err)
	}
	if err := v.Verify(ch, &Response{}, recompute(f)); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty response: err = %v, want ErrProtocol", err)
	}
}

// TestVerifyChecksResponseAgainstChallenge: the response must prove exactly
// the challenged indices of the committed domain. Anything else is a
// protocol violation, found before the output check spends an evaluation.
func TestVerifyChecksResponseAgainstChallenge(t *testing.T) {
	f := testFunction(13)
	p := honestProver(t, f, 37)
	v := seededVerifier(t, p.Commitment(), 1)
	ch := Challenge{Indices: []uint64{20, 5, 36, 5}}
	respond := func(indices ...uint64) *Response {
		t.Helper()
		resp, err := p.Respond(indices)
		if err != nil {
			t.Fatalf("Respond(%v): %v", indices, err)
		}
		return resp
	}
	if err := v.Verify(ch, respond(ch.Indices...), recompute(f)); err != nil {
		t.Fatalf("honest response rejected: %v", err)
	}

	otherDomain := respond(ch.Indices...)
	otherDomain.Proof.N = 38
	outOfDomain := respond(ch.Indices...)
	outOfDomain.Proof.Indices[2] = 37
	unsorted := respond(ch.Indices...)
	unsorted.Proof.Indices[0], unsorted.Proof.Indices[1] = unsorted.Proof.Indices[1], unsorted.Proof.Indices[0]
	noValue := respond(ch.Indices...)
	noValue.Proof.Values = noValue.Proof.Values[:2]
	noSiblings := respond(ch.Indices...)
	noSiblings.Proof.Siblings = nil
	for name, resp := range map[string]*Response{
		"missing index":        respond(20, 36),
		"extra index":          respond(20, 5, 36, 6),
		"other indices":        respond(1, 2, 3),
		"another domain size":  otherDomain,
		"out-of-domain index":  outOfDomain,
		"unsorted indices":     unsorted,
		"fewer values":         noValue,
		"sibling list dropped": noSiblings,
	} {
		evals := 0
		check := func(i uint64, out []byte) error {
			evals++
			return recompute(f)(i, out)
		}
		err := v.Verify(ch, resp, check)
		var cheatErr *CheatError
		if !errors.Is(err, ErrProtocol) || errors.As(err, &cheatErr) {
			t.Errorf("%s: err = %v, want a bare ErrProtocol", name, err)
		}
		if name != "sibling list dropped" && name != "fewer values" && evals != 0 {
			t.Errorf("%s: %d outputs checked before the response was refused", name, evals)
		}
	}
	// A challenge outside the committed domain can never be answered.
	if err := v.Verify(Challenge{Indices: []uint64{37}}, respond(36), recompute(f)); !errors.Is(err, ErrProtocol) {
		t.Errorf("challenge past the domain: err = %v, want ErrProtocol", err)
	}
}

// TestVerifyChecksEveryChallengedSample pins Theorem 3's accounting: the
// draws are with replacement, so a challenge of m indices costs exactly m
// output checks, in challenge order, however many of them repeat — while the
// response proves each distinct index once.
func TestVerifyChecksEveryChallengedSample(t *testing.T) {
	f := testFunction(14)
	p := honestProver(t, f, 64)
	v := seededVerifier(t, p.Commitment(), 1)
	ch := Challenge{Indices: []uint64{17, 3, 17, 17, 60, 3, 0, 63}}
	resp, err := p.Respond(ch.Indices)
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}
	if got := len(resp.Proof.Indices); got != 5 {
		t.Fatalf("response proves %d indices, want the 5 distinct ones", got)
	}
	var checked []uint64
	check := func(i uint64, out []byte) error {
		checked = append(checked, i)
		return recompute(f)(i, out)
	}
	if err := v.Verify(ch, resp, check); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !slices.Equal(checked, ch.Indices) {
		t.Fatalf("checked %v, want the challenge %v in order", checked, ch.Indices)
	}
}

func TestChallengeDistribution(t *testing.T) {
	f := testFunction(5)
	p := honestProver(t, f, 8)
	v := seededVerifier(t, p.Commitment(), 99)
	ch, err := v.Challenge(8000)
	if err != nil {
		t.Fatalf("Challenge: %v", err)
	}
	counts := make([]int, 8)
	for _, idx := range ch.Indices {
		if idx >= 8 {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	for bucket, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("bucket %d has %d of 8000 samples; challenge not uniform: %v", bucket, c, counts)
		}
	}
}

func TestChallengeNonPowerOfTwoUnbiased(t *testing.T) {
	f := testFunction(6)
	p := honestProver(t, f, 3)
	v := seededVerifier(t, p.Commitment(), 5)
	ch, err := v.Challenge(9000)
	if err != nil {
		t.Fatalf("Challenge: %v", err)
	}
	counts := make([]int, 3)
	for _, idx := range ch.Indices {
		counts[idx]++
	}
	for bucket, c := range counts {
		if c < 2700 || c > 3300 {
			t.Fatalf("bucket %d has %d of 9000; rejection sampling biased: %v", bucket, c, counts)
		}
	}
}

// TestEquationTwoMonteCarlo cross-checks Theorem 3 against the live
// protocol: the measured cheat-survival rate over many independent rounds
// must match (r + (1-r)q)^m.
func TestEquationTwoMonteCarlo(t *testing.T) {
	const (
		n      = 32
		rounds = 400
	)
	tests := []struct {
		name string
		r    float64
		bits uint // output width: q = 2^-bits
		q    float64
		m    int
	}{
		{name: "r=0.5 q=0 m=3", r: 0.5, bits: 64, q: 0, m: 3},
		{name: "r=0.5 q=0.5 m=4", r: 0.5, bits: 1, q: 0.5, m: 4},
		{name: "r=0.8 q=0 m=5", r: 0.8, bits: 64, q: 0, m: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			survived := 0
			for round := 0; round < rounds; round++ {
				f := workload.NewSynthetic(uint64(round), 1, tt.bits)
				producer, err := cheat.NewSemiHonest(f, tt.r, uint64(round)*7919)
				if err != nil {
					t.Fatalf("NewSemiHonest: %v", err)
				}
				prover, err := NewProver(n, func(x uint64) []byte { return producer.AppendClaim(nil, x) })
				if err != nil {
					t.Fatalf("NewProver: %v", err)
				}
				verifier := seededVerifier(t, prover.Commitment(), int64(round)+1)
				ch, err := verifier.Challenge(tt.m)
				if err != nil {
					t.Fatalf("Challenge: %v", err)
				}
				resp, err := prover.Respond(ch.Indices)
				if err != nil {
					t.Fatalf("Respond: %v", err)
				}
				err = verifier.Verify(ch, resp, recompute(f))
				var cheatErr *CheatError
				switch {
				case err == nil:
					survived++
				case errors.As(err, &cheatErr):
					// detected; expected most of the time
				default:
					t.Fatalf("unexpected protocol error: %v", err)
				}
			}
			got := float64(survived) / rounds
			want := math.Pow(tt.r+(1-tt.r)*tt.q, float64(tt.m))
			// Binomial std dev over `rounds` trials; allow 4 sigma.
			sigma := math.Sqrt(want * (1 - want) / rounds)
			if math.Abs(got-want) > 4*sigma+0.02 {
				t.Fatalf("survival rate = %v, want %v ± %v (Eq. 2)", got, want, 4*sigma+0.02)
			}
		})
	}
}

func TestStorageBoundedProverMatchesFullProver(t *testing.T) {
	f := testFunction(7)
	const n = 128
	full := honestProver(t, f, n)
	bounded := honestProver(t, f, n, WithSubtreeHeight(4))

	if string(full.Commitment().Root) != string(bounded.Commitment().Root) {
		t.Fatal("storage-bounded prover commits to a different root")
	}
	if bounded.StoredNodes() >= full.StoredNodes() {
		t.Fatalf("bounded StoredNodes() = %d, full = %d; no storage saved",
			bounded.StoredNodes(), full.StoredNodes())
	}

	verifier := seededVerifier(t, bounded.Commitment(), 3)
	ch, err := verifier.Challenge(8)
	if err != nil {
		t.Fatalf("Challenge: %v", err)
	}
	resp, err := bounded.Respond(ch.Indices)
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}
	if err := verifier.Verify(ch, resp, recompute(f)); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := bounded.RebuiltLeaves(); got != 8*(1<<4) {
		t.Fatalf("RebuiltLeaves() = %d, want %d (m·2^ℓ)", got, 8*(1<<4))
	}
	if full.RebuiltLeaves() != 0 {
		t.Fatal("full prover reports rebuilt leaves")
	}
}

func TestNonInteractiveRoundTrip(t *testing.T) {
	f := testFunction(8)
	chain, err := hashchain.New(2)
	if err != nil {
		t.Fatalf("hashchain.New: %v", err)
	}
	const n, m = 64, 10

	prover := honestProver(t, f, n)
	resp, err := prover.RespondNonInteractive(chain, m)
	if err != nil {
		t.Fatalf("RespondNonInteractive: %v", err)
	}
	verifier := seededVerifier(t, prover.Commitment(), 1)
	if err := verifier.VerifyNonInteractive(chain, m, resp, recompute(f)); err != nil {
		t.Fatalf("VerifyNonInteractive: %v", err)
	}
}

func TestNonInteractiveCatchesNaiveCheater(t *testing.T) {
	// A semi-honest cheater that does NOT re-roll is caught by NI-CBS at
	// the same rate as CBS. With r=0.25 and m=8 the survival probability is
	// 2^-16; one run virtually always convicts.
	f := testFunction(9)
	chain, err := hashchain.New(1)
	if err != nil {
		t.Fatalf("hashchain.New: %v", err)
	}
	producer, err := cheat.NewSemiHonest(f, 0.25, 4242)
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	prover, err := NewProver(256, func(x uint64) []byte { return producer.AppendClaim(nil, x) })
	if err != nil {
		t.Fatalf("NewProver: %v", err)
	}
	resp, err := prover.RespondNonInteractive(chain, 8)
	if err != nil {
		t.Fatalf("RespondNonInteractive: %v", err)
	}
	verifier := seededVerifier(t, prover.Commitment(), 2)
	err = verifier.VerifyNonInteractive(chain, 8, resp, recompute(f))
	var cheatErr *CheatError
	if !errors.As(err, &cheatErr) {
		t.Fatalf("cheater passed NI-CBS: err = %v", err)
	}
}

func TestNonInteractiveRerollForgeryPasses(t *testing.T) {
	// The flip side (Section 4.2): a re-rolling attacker with a small m
	// forges a commitment that NI-CBS accepts — motivating the Eq. 5
	// defense. The output check must be the screener-style "accept
	// committed values" here, since the supervisor in the NI setting cannot
	// recompute f for values it never saw... it CAN check outputs; the
	// attack works because all audited samples fall in D', where outputs
	// are genuinely correct.
	f := testFunction(10)
	chain, err := hashchain.New(1)
	if err != nil {
		t.Fatalf("hashchain.New: %v", err)
	}
	const n, m = 32, 3
	result, err := cheat.Reroll(cheat.RerollConfig{
		F:           f,
		N:           n,
		Ratio:       0.5,
		M:           m,
		Chain:       chain,
		MaxAttempts: 1 << 14,
		Seed:        77,
	})
	if err != nil {
		t.Fatalf("Reroll: %v", err)
	}
	forged, err := NewProver(n, func(i uint64) []byte { return result.Claims[i] })
	if err != nil {
		t.Fatalf("NewProver: %v", err)
	}
	resp, err := forged.RespondNonInteractive(chain, m)
	if err != nil {
		t.Fatalf("RespondNonInteractive: %v", err)
	}
	verifier := seededVerifier(t, forged.Commitment(), 3)
	if err := verifier.VerifyNonInteractive(chain, m, resp, recompute(f)); err != nil {
		t.Fatalf("re-roll forgery rejected — attack should succeed at small m: %v", err)
	}
}

func TestNonInteractiveValidation(t *testing.T) {
	f := testFunction(11)
	p := honestProver(t, f, 8)
	chain, err := hashchain.New(1)
	if err != nil {
		t.Fatalf("hashchain.New: %v", err)
	}
	if _, err := p.RespondNonInteractive(nil, 4); !errors.Is(err, ErrProtocol) {
		t.Errorf("nil chain: err = %v, want ErrProtocol", err)
	}
	if _, err := p.RespondNonInteractive(chain, 0); !errors.Is(err, ErrBadSampleCount) {
		t.Errorf("m=0: err = %v, want ErrBadSampleCount", err)
	}
	v := seededVerifier(t, p.Commitment(), 1)
	resp, err := p.RespondNonInteractive(chain, 4)
	if err != nil {
		t.Fatalf("RespondNonInteractive: %v", err)
	}
	if err := v.VerifyNonInteractive(nil, 4, resp, recompute(f)); !errors.Is(err, ErrProtocol) {
		t.Errorf("nil chain: err = %v, want ErrProtocol", err)
	}
	if err := v.VerifyNonInteractive(chain, 0, resp, recompute(f)); !errors.Is(err, ErrBadSampleCount) {
		t.Errorf("m=0: err = %v, want ErrBadSampleCount", err)
	}
	// Mismatched chains derive different indices → protocol error.
	otherChain, err := hashchain.New(3)
	if err != nil {
		t.Fatalf("hashchain.New: %v", err)
	}
	if err := v.VerifyNonInteractive(otherChain, 4, resp, recompute(f)); err == nil {
		t.Error("mismatched chains accepted")
	}
}

func TestCheckFuncAdapters(t *testing.T) {
	f := testFunction(12)
	check := recompute(f)
	if err := check(5, f.Eval(5)); err != nil {
		t.Fatalf("RecomputeCheck rejected the true value: %v", err)
	}
	if err := check(5, f.Eval(6)); !errors.Is(err, ErrWrongOutput) {
		t.Fatalf("RecomputeCheck accepted a wrong value: %v", err)
	}
	if err := check(5, []byte{1}); !errors.Is(err, ErrWrongOutput) {
		t.Fatalf("RecomputeCheck accepted a short value: %v", err)
	}
	if err := AcceptAnyOutput(1, []byte{9}); err != nil {
		t.Fatalf("AcceptAnyOutput: %v", err)
	}
}

func TestCheatErrorFormatting(t *testing.T) {
	err := &CheatError{Index: 42, Err: ErrWrongOutput}
	if !errors.Is(err, ErrWrongOutput) {
		t.Fatal("CheatError does not unwrap")
	}
	if msg := err.Error(); msg == "" {
		t.Fatal("empty error message")
	}
}
