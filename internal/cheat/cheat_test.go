package cheat

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"uncheatgrid/internal/workload"
)

func TestHonestClaimsMatchF(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	h := NewHonest(f)
	for x := uint64(0); x < 16; x++ {
		if !bytes.Equal(h.AppendClaim(nil, x), f.Eval(x)) {
			t.Fatalf("Claim(%d) != f(%d)", x, x)
		}
		if !h.HonestOn(x) {
			t.Fatalf("HonestOn(%d) = false for honest participant", x)
		}
	}
	if s, ok := h.Report(1, "hit", true); s != "hit" || !ok {
		t.Fatal("honest Report mutated the verdict")
	}
}

func TestSemiHonestRatioValidation(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewSemiHonest(f, bad, 1); !errors.Is(err, ErrBadRatio) {
			t.Errorf("NewSemiHonest(r=%v): err = %v, want ErrBadRatio", bad, err)
		}
	}
}

func TestSemiHonestSubsetFractionMatchesR(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	for _, r := range []float64{0.0, 0.25, 0.5, 0.9, 1.0} {
		t.Run(fmt.Sprintf("r=%g", r), func(t *testing.T) {
			s, err := NewSemiHonest(f, r, 42)
			if err != nil {
				t.Fatalf("NewSemiHonest: %v", err)
			}
			const n = 20000
			honest := 0
			for x := uint64(0); x < n; x++ {
				if s.HonestOn(x) {
					honest++
				}
			}
			got := float64(honest) / n
			if math.Abs(got-r) > 0.02 {
				t.Fatalf("|D'|/|D| = %v, want ≈ %v", got, r)
			}
		})
	}
}

func TestSemiHonestMembershipIsStable(t *testing.T) {
	// D' must not drift between commitment and proof phases, or the cheater
	// model would not match the paper's analysis.
	f := workload.NewSynthetic(1, 1, 64)
	s, err := NewSemiHonest(f, 0.5, 7)
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	for x := uint64(0); x < 500; x++ {
		if s.HonestOn(x) != s.HonestOn(x) {
			t.Fatalf("HonestOn(%d) is not stable", x)
		}
	}
}

func TestSemiHonestClaimsHonestOnDPrime(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	s, err := NewSemiHonest(f, 0.5, 11)
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	var honestMatches, dishonestMatches, honestCount, dishonestCount int
	for x := uint64(0); x < 2000; x++ {
		claim := s.AppendClaim(nil, x)
		matches := bytes.Equal(claim, f.Eval(x))
		if s.HonestOn(x) {
			honestCount++
			if matches {
				honestMatches++
			}
		} else {
			dishonestCount++
			if matches {
				dishonestMatches++
			}
		}
	}
	if honestMatches != honestCount {
		t.Fatalf("honest claims correct on %d/%d inputs", honestMatches, honestCount)
	}
	// 64-bit guesses essentially never collide with the true value.
	if dishonestMatches != 0 {
		t.Fatalf("guessed claims matched f on %d/%d inputs", dishonestMatches, dishonestCount)
	}
}

func TestSemiHonestGuessMatchesQForOneBit(t *testing.T) {
	// With a 1-bit output the fabricated leaves should be right about half
	// the time — the q = 0.5 premise of Fig. 2.
	f := workload.NewSynthetic(3, 1, 1)
	s, err := NewSemiHonest(f, 0, 13) // r = 0: everything is guessed
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	matches := 0
	const n = 4000
	for x := uint64(0); x < n; x++ {
		if bytes.Equal(s.AppendClaim(nil, x), f.Eval(x)) {
			matches++
		}
	}
	rate := float64(matches) / n
	if rate < 0.45 || rate > 0.55 {
		t.Fatalf("guess hit rate = %v, want ≈ 0.5", rate)
	}
}

func TestSemiHonestEdgeRatios(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	all, err := NewSemiHonest(f, 1, 3)
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	none, err := NewSemiHonest(f, 0, 3)
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	for x := uint64(0); x < 100; x++ {
		if !all.HonestOn(x) {
			t.Fatalf("r=1: HonestOn(%d) = false", x)
		}
		if none.HonestOn(x) {
			t.Fatalf("r=0: HonestOn(%d) = true", x)
		}
	}
}

func TestSemiHonestNameCarriesRatio(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	s, err := NewSemiHonest(f, 0.25, 1)
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	if s.Name() != "semi-honest(r=0.25)" {
		t.Fatalf("Name() = %q", s.Name())
	}
	if s.Ratio() != 0.25 {
		t.Fatalf("Ratio() = %v", s.Ratio())
	}
}

func TestMaliciousComputesHonestly(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	m, err := NewMalicious(f, 0.5, 9)
	if err != nil {
		t.Fatalf("NewMalicious: %v", err)
	}
	for x := uint64(0); x < 64; x++ {
		if !bytes.Equal(m.AppendClaim(nil, x), f.Eval(x)) {
			t.Fatalf("malicious Claim(%d) differs from f — it should cheat downstream, not here", x)
		}
		if !m.HonestOn(x) {
			t.Fatalf("malicious HonestOn(%d) = false", x)
		}
	}
}

func TestMaliciousCorruptsReportsAtRate(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	m, err := NewMalicious(f, 0.3, 17)
	if err != nil {
		t.Fatalf("NewMalicious: %v", err)
	}
	const n = 10000
	suppressed, fabricated := 0, 0
	for x := uint64(0); x < n; x++ {
		if _, ok := m.Report(x, "real hit", true); !ok {
			suppressed++
		}
		if _, ok := m.Report(x, "", false); ok {
			fabricated++
		}
	}
	for name, got := range map[string]int{"suppressed": suppressed, "fabricated": fabricated} {
		rate := float64(got) / n
		if math.Abs(rate-0.3) > 0.03 {
			t.Errorf("%s rate = %v, want ≈ 0.3", name, rate)
		}
	}
}

func TestMaliciousProbValidation(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	if _, err := NewMalicious(f, -1, 1); !errors.Is(err, ErrBadProb) {
		t.Fatalf("NewMalicious(-1): err = %v, want ErrBadProb", err)
	}
	if _, err := NewMalicious(f, 2, 1); !errors.Is(err, ErrBadProb) {
		t.Fatalf("NewMalicious(2): err = %v, want ErrBadProb", err)
	}
}

func TestRatioThresholdEdges(t *testing.T) {
	if got := ratioThreshold(0); got != 0 {
		t.Errorf("ratioThreshold(0) = %d", got)
	}
	if got := ratioThreshold(1); got != ^uint64(0) {
		t.Errorf("ratioThreshold(1) = %d", got)
	}
	mid := ratioThreshold(0.5)
	if mid < 1<<62 || mid > 3<<62 {
		t.Errorf("ratioThreshold(0.5) = %d, not near 2^63", mid)
	}
}
