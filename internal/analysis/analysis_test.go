package analysis

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestCheatSuccessProbKnownValues(t *testing.T) {
	tests := []struct {
		r, q float64
		m    int
		want float64
	}{
		// §4.2: m = 10, r = 0.5, q = 0 → 1 in 2^10.
		{r: 0.5, q: 0, m: 10, want: 1.0 / 1024},
		// Honest participant always "survives".
		{r: 1, q: 0, m: 50, want: 1},
		// Full cheater with coin-flip guesses: (0.5)^m.
		{r: 0, q: 0.5, m: 2, want: 0.25},
		// Full cheater with perfect guesses survives.
		{r: 0, q: 1, m: 10, want: 1},
		// Intro's motivating case: half the work, q=0, one sample → 1/2.
		{r: 0.5, q: 0, m: 1, want: 0.5},
	}
	for _, tt := range tests {
		t.Run(fmt.Sprintf("r=%g,q=%g,m=%d", tt.r, tt.q, tt.m), func(t *testing.T) {
			got, err := CheatSuccessProb(tt.r, tt.q, tt.m)
			if err != nil {
				t.Fatalf("CheatSuccessProb: %v", err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCheatSuccessProbValidation(t *testing.T) {
	if _, err := CheatSuccessProb(-0.1, 0, 1); !errors.Is(err, ErrBadRatio) {
		t.Errorf("r=-0.1: err = %v, want ErrBadRatio", err)
	}
	if _, err := CheatSuccessProb(0.5, 2, 1); !errors.Is(err, ErrBadGuessProb) {
		t.Errorf("q=2: err = %v, want ErrBadGuessProb", err)
	}
	if _, err := CheatSuccessProb(0.5, 0.5, 0); !errors.Is(err, ErrBadSamples) {
		t.Errorf("m=0: err = %v, want ErrBadSamples", err)
	}
	if _, err := CheatSuccessProb(math.NaN(), 0, 1); !errors.Is(err, ErrBadRatio) {
		t.Errorf("r=NaN: err = %v, want ErrBadRatio", err)
	}
}

func TestDetectionProbComplements(t *testing.T) {
	p, err := CheatSuccessProb(0.7, 0.2, 20)
	if err != nil {
		t.Fatalf("CheatSuccessProb: %v", err)
	}
	d, err := DetectionProb(0.7, 0.2, 20)
	if err != nil {
		t.Fatalf("DetectionProb: %v", err)
	}
	if math.Abs(p+d-1) > 1e-15 {
		t.Fatalf("p + d = %v, want 1", p+d)
	}
}

func TestRequiredSamplesPaperSpotValues(t *testing.T) {
	// Section 3.2: with ε = 1e-4 and r = 0.5, the paper reports m = 33 for
	// q = 0.5 and m = 14 for q ≈ 0. These two points anchor Fig. 2.
	tests := []struct {
		r, q float64
		want int
	}{
		{r: 0.5, q: 0.5, want: 33},
		{r: 0.5, q: 0, want: 14},
	}
	for _, tt := range tests {
		t.Run(fmt.Sprintf("r=%g,q=%g", tt.r, tt.q), func(t *testing.T) {
			got, err := RequiredSamples(1e-4, tt.r, tt.q)
			if err != nil {
				t.Fatalf("RequiredSamples: %v", err)
			}
			if got != tt.want {
				t.Fatalf("RequiredSamples = %d, want %d (paper §3.2)", got, tt.want)
			}
		})
	}
}

func TestRequiredSamplesAchievesEpsilon(t *testing.T) {
	// The returned m must push the success probability below ε, and m-1
	// must not (minimality).
	for _, r := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, q := range []float64{0, 0.25, 0.5} {
			const eps = 1e-4
			m, err := RequiredSamples(eps, r, q)
			if err != nil {
				t.Fatalf("RequiredSamples(r=%v,q=%v): %v", r, q, err)
			}
			at, err := CheatSuccessProb(r, q, m)
			if err != nil {
				t.Fatalf("CheatSuccessProb: %v", err)
			}
			// Allow a hair of float slack: at r=0.1, q=0 the bound holds
			// with exact equality in real arithmetic.
			if at > eps*(1+1e-9) {
				t.Errorf("r=%v q=%v: Pr at m=%d is %v > ε", r, q, m, at)
			}
			if m > 1 {
				before, err := CheatSuccessProb(r, q, m-1)
				if err != nil {
					t.Fatalf("CheatSuccessProb: %v", err)
				}
				if before <= eps {
					t.Errorf("r=%v q=%v: m=%d not minimal (m-1 already ≤ ε)", r, q, m)
				}
			}
		}
	}
}

func TestRequiredSamplesMonotoneInR(t *testing.T) {
	// Fig. 2 shape: higher honesty ratios need more samples to catch.
	prev := 0
	for _, r := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		m, err := RequiredSamples(1e-4, r, 0)
		if err != nil {
			t.Fatalf("RequiredSamples(r=%v): %v", r, err)
		}
		if m < prev {
			t.Fatalf("sample size not monotone: m(%v)=%d < previous %d", r, m, prev)
		}
		prev = m
	}
}

func TestRequiredSamplesQZeroVsHalf(t *testing.T) {
	// Fig. 2: the q=0.5 curve dominates the q=0 curve everywhere.
	for _, r := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		m0, err := RequiredSamples(1e-4, r, 0)
		if err != nil {
			t.Fatalf("RequiredSamples: %v", err)
		}
		mHalf, err := RequiredSamples(1e-4, r, 0.5)
		if err != nil {
			t.Fatalf("RequiredSamples: %v", err)
		}
		if mHalf <= m0 {
			t.Errorf("r=%v: m(q=0.5)=%d not above m(q=0)=%d", r, mHalf, m0)
		}
	}
}

func TestRequiredSamplesEdges(t *testing.T) {
	if _, err := RequiredSamples(0, 0.5, 0); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("eps=0: err = %v, want ErrBadEpsilon", err)
	}
	if _, err := RequiredSamples(1, 0.5, 0); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("eps=1: err = %v, want ErrBadEpsilon", err)
	}
	if _, err := RequiredSamples(1e-4, 1, 0); !errors.Is(err, ErrUnachievable) {
		t.Errorf("r=1: err = %v, want ErrUnachievable", err)
	}
	if _, err := RequiredSamples(1e-4, 0.5, 1); !errors.Is(err, ErrUnachievable) {
		t.Errorf("q=1: err = %v, want ErrUnachievable", err)
	}
	m, err := RequiredSamples(1e-4, 0, 0)
	if err != nil || m != 1 {
		t.Errorf("r=0,q=0: (m, err) = (%d, %v), want (1, nil)", m, err)
	}
}

func TestRCOPaperSpotValue(t *testing.T) {
	// Section 3.3: m = 64 with S = 2^32 stored slots gives rco = 2^-25.
	got, err := RCO(64, 1<<32)
	if err != nil {
		t.Fatalf("RCO: %v", err)
	}
	if want := math.Pow(2, -25); math.Abs(got-want) > 1e-18 {
		t.Fatalf("RCO = %v, want 2^-25 = %v", got, want)
	}
}

func TestRCOFormulaConsistency(t *testing.T) {
	// rco = m·2^ℓ/2^H must equal 2m/S with S = 2^(H-ℓ+1).
	const height = 20
	for ell := 0; ell <= height; ell++ {
		stored, err := StoredNodesFor(height, ell)
		if err != nil {
			t.Fatalf("StoredNodesFor: %v", err)
		}
		rebuild, err := RebuildCost(ell)
		if err != nil {
			t.Fatalf("RebuildCost: %v", err)
		}
		const m = 16
		direct := float64(m) * float64(rebuild) / float64(int64(1)<<height)
		viaS, err := RCO(m, stored)
		if err != nil {
			t.Fatalf("RCO: %v", err)
		}
		if math.Abs(direct-viaS) > 1e-15 {
			t.Fatalf("ell=%d: m·2^ℓ/2^H = %v but 2m/S = %v", ell, direct, viaS)
		}
	}
}

func TestRCOErrors(t *testing.T) {
	if _, err := RCO(0, 4); !errors.Is(err, ErrBadSamples) {
		t.Errorf("m=0: err = %v, want ErrBadSamples", err)
	}
	if _, err := RCO(1, 1); err == nil {
		t.Error("storedNodes=1 accepted")
	}
	if _, err := StoredNodesFor(4, 5); err == nil {
		t.Error("ell>H accepted")
	}
	if _, err := RebuildCost(-1); err == nil {
		t.Error("negative ell accepted")
	}
}

func TestExpectedRerollAttempts(t *testing.T) {
	got, err := ExpectedRerollAttempts(0.5, 10)
	if err != nil {
		t.Fatalf("ExpectedRerollAttempts: %v", err)
	}
	if got != 1024 {
		t.Fatalf("r=0.5,m=10: attempts = %v, want 1024", got)
	}
	inf, err := ExpectedRerollAttempts(0, 5)
	if err != nil {
		t.Fatalf("ExpectedRerollAttempts: %v", err)
	}
	if !math.IsInf(inf, 1) {
		t.Fatalf("r=0: attempts = %v, want +Inf", inf)
	}
	one, err := ExpectedRerollAttempts(1, 5)
	if err != nil || one != 1 {
		t.Fatalf("r=1: (attempts, err) = (%v, %v), want (1, nil)", one, err)
	}
}

func TestRerollAttackCostEquationFive(t *testing.T) {
	// With k from RequiredChainIterations, Eq. 5 must hold with equality up
	// to the ceiling; with k-1 it must fail (when k > 1).
	const (
		n     = 1 << 20
		fCost = 8.0
		r     = 0.9
		m     = 16
	)
	k, err := RequiredChainIterations(n, fCost, r, m)
	if err != nil {
		t.Fatalf("RequiredChainIterations: %v", err)
	}
	if k < 2 {
		t.Fatalf("test parameters too weak: k = %v", k)
	}
	cost, err := RerollAttackCost(n, fCost, r, m, int(k))
	if err != nil {
		t.Fatalf("RerollAttackCost: %v", err)
	}
	if !cost.Uneconomical() {
		t.Fatalf("k=%v: cheating %v < honest %v; Eq. 5 violated", k, cost.Cheating, cost.Honest)
	}
	below, err := RerollAttackCost(n, fCost, r, m, int(k)-1)
	if err != nil {
		t.Fatalf("RerollAttackCost: %v", err)
	}
	if below.Uneconomical() {
		t.Fatalf("k-1=%v already uneconomical; k not minimal", k-1)
	}
}

func TestRequiredChainIterationsFloorsAtOne(t *testing.T) {
	// For tiny r^m the plain hash is already expensive enough.
	k, err := RequiredChainIterations(1<<20, 1, 0.5, 64)
	if err != nil {
		t.Fatalf("RequiredChainIterations: %v", err)
	}
	if k != 1 {
		t.Fatalf("k = %v, want 1", k)
	}
}

func TestHonestChainOverheadIsAboutRToM(t *testing.T) {
	// Section 4.2: with k sized to Eq. 5 equality, the honest participant's
	// extra cost ratio is about r^m.
	const (
		n     = 1 << 24
		fCost = 16.0
		r     = 0.95
		m     = 32
	)
	overhead, err := HonestChainOverhead(n, fCost, r, m)
	if err != nil {
		t.Fatalf("HonestChainOverhead: %v", err)
	}
	want := math.Pow(r, m)
	// The ceiling on k adds at most one part in k; allow 10% slack.
	if overhead < want*0.99 || overhead > want*1.1 {
		t.Fatalf("overhead = %v, want ≈ r^m = %v", overhead, want)
	}
	if overhead > 0.21 {
		t.Fatalf("overhead %v not negligible; the paper's claim fails", overhead)
	}
}

func TestCommunicationModels(t *testing.T) {
	// Naive is linear, CBS logarithmic — the headline comparison.
	const resultSize, digestSize, m = 32, 32, 50
	naive1k := NaiveCommunicationBytes(1<<10, resultSize)
	naive1M := NaiveCommunicationBytes(1<<20, resultSize)
	if naive1M != 1024*naive1k {
		t.Fatalf("naive cost not linear: %.0f vs %.0f", naive1M, naive1k)
	}
	cbs1k := CBSCommunicationBytes(1<<10, resultSize, digestSize, m)
	cbs1M := CBSCommunicationBytes(1<<20, resultSize, digestSize, m)
	if cbs1M >= 2*cbs1k {
		t.Fatalf("CBS cost not logarithmic: %d vs %d", cbs1M, cbs1k)
	}
	// Exact model: digest + m·(result + H·digest).
	if want := int64(digestSize + m*(resultSize+10*digestSize)); cbs1k != want {
		t.Fatalf("CBS(2^10) = %d, want %d", cbs1k, want)
	}
}

func TestPaperHeadline64BitTask(t *testing.T) {
	// Section 3: a 2^64-input task under naive sampling ships ~16 million
	// terabytes back to the supervisor (at 1 byte per result, 2^64 B =
	// 16 EiB ≈ 16.8M TB); CBS ships kilobytes per participant.
	naive := NaiveCommunicationBytes(math.MaxInt64, 1) // 2^63-1 as int64 stand-in
	if naive < (1<<63)-1 {
		t.Fatalf("naive bytes overflowed: %.0f", naive)
	}
	// 2^62 results of 8 bytes are 2^65 B — past int64, where the product
	// used to wrap to 0.
	if got := NaiveCommunicationBytes(1<<62, 8); got != math.Ldexp(1, 65) {
		t.Fatalf("naive bytes for 2^62 × 8 B = %.0f, want 2^65", got)
	}
	cbs := CBSCommunicationBytes(math.MaxInt64, 32, 32, 50)
	if cbs > 200_000 {
		t.Fatalf("CBS bytes for a 2^63 task = %d, want under 200KB", cbs)
	}
}

func TestCheatSuccessProbQuickMonotonicity(t *testing.T) {
	// More samples never help the cheater; higher r never hurts them.
	f := func(rSeed, qSeed uint8, mSeed uint8) bool {
		r := float64(rSeed%100) / 100
		q := float64(qSeed%100) / 100
		m := int(mSeed%50) + 1
		p1, err1 := CheatSuccessProb(r, q, m)
		p2, err2 := CheatSuccessProb(r, q, m+1)
		if err1 != nil || err2 != nil {
			return false
		}
		if p2 > p1+1e-15 {
			return false
		}
		p3, err3 := CheatSuccessProb(math.Min(r+0.01, 1), q, m)
		if err3 != nil {
			return false
		}
		return p3 >= p1-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
