package cheat

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"uncheatgrid/internal/workload"
)

// The Claim(x) []byte bodies AppendClaim replaced, kept as the reference
// the append forms are compared against. The semi-honest one still seeds a
// math/rand source per guess: its guess bytes are the old stream's, so only
// its membership decisions and honest-branch bytes are comparable.

func referenceHonestClaim(f workload.Function, x uint64) []byte { return f.Eval(x) }

func referenceSemiHonestClaim(s *SemiHonest, x uint64) []byte {
	if s.HonestOn(x) {
		return s.f.Eval(x)
	}
	rng := rand.New(rand.NewSource(int64(mix(s.seed ^ mix(x^0x6355)))))
	return s.f.GuessOutput(x, rng)
}

var appendInputs = []uint64{0, 1, 2, 255, 1<<32 + 5, 1<<64 - 1}

// checkAppendClaim asserts AppendClaim gives want onto nil and onto a
// prefix, which must come back untouched and extended by exactly want.
func checkAppendClaim(t *testing.T, p Producer, x uint64, want []byte) {
	t.Helper()
	if got := p.AppendClaim(nil, x); !bytes.Equal(got, want) {
		t.Errorf("%s: AppendClaim(nil, %d) = %x, want %x", p.Name(), x, got, want)
	}
	prefix := []byte("prefix")
	got := p.AppendClaim(append(make([]byte, 0, 64), prefix...), x)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("%s: AppendClaim(prefix, %d) = %x, want prefix + %x", p.Name(), x, got, want)
	}
}

func TestAppendClaimMatchesReferenceClaim(t *testing.T) {
	for _, name := range workload.Names() {
		f, err := workload.New(name, 7)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		malicious, err := NewMalicious(f, 0.5, 3)
		if err != nil {
			t.Fatalf("NewMalicious: %v", err)
		}
		for _, x := range appendInputs {
			checkAppendClaim(t, NewHonest(f), x, referenceHonestClaim(f, x))
			// The saboteur's old Claim was the honest one.
			checkAppendClaim(t, malicious, x, referenceHonestClaim(f, x))
		}
	}
}

// TestSemiHonestMembershipMatchesParent pins D' itself: the masks were
// recorded from HonestOn at the commit before the guess stream changed
// (bit x set ⇔ x ∈ D', x < 64). Detection, verdicts and CheatIndex depend on
// membership, never on what a guess happens to hold.
func TestSemiHonestMembershipMatchesParent(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	for _, c := range []struct {
		r    float64
		seed uint64
		mask uint64
	}{
		{0.5, 11, 0x6761021a94443b7f},
		{0.25, 42, 0x088082c324245e44},
		{0.9, 7, 0xffffffffffffbff7},
	} {
		s, err := NewSemiHonest(f, c.r, c.seed)
		if err != nil {
			t.Fatalf("NewSemiHonest: %v", err)
		}
		var mask uint64
		for x := uint64(0); x < 64; x++ {
			if s.HonestOn(x) {
				mask |= 1 << x
			}
		}
		if mask != c.mask {
			t.Errorf("r=%v seed=%d: D' mask %#016x, recorded %#016x", c.r, c.seed, mask, c.mask)
		}
	}
}

func TestSemiHonestAppendClaim(t *testing.T) {
	for _, name := range workload.Names() {
		f, err := workload.New(name, 7)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		s, err := NewSemiHonest(f, 0.5, 11)
		if err != nil {
			t.Fatalf("NewSemiHonest: %v", err)
		}
		honest, guessed := 0, 0
		for x := uint64(0); x < 64; x++ {
			ref := referenceSemiHonestClaim(s, x)
			if s.HonestOn(x) {
				honest++
				checkAppendClaim(t, s, x, ref)
				continue
			}
			// A guess is a deterministic function of (seed, x) alone: the
			// same bytes on every call and in every form, whatever was
			// guessed in between — a pooled stream carries nothing over,
			// not even bytes rng.Read left buffered.
			guessed++
			first := s.AppendClaim(nil, x)
			if len(first) != len(ref) {
				t.Fatalf("%s: guess for %d is %d bytes, f's outputs are %d", name, x, len(first), len(ref))
			}
			s.AppendClaim(nil, x+1000)
			checkAppendClaim(t, s, x, first)
		}
		if honest == 0 || guessed == 0 {
			t.Fatalf("%s: %d honest and %d guessed inputs; both branches must run", name, honest, guessed)
		}
	}
}

// TestGuessStreamIsSplitmix64 checks the pooled source against the
// published generator: state += γ, then the finalizer — which is mix.
func TestGuessStreamIsSplitmix64(t *testing.T) {
	g := &guessStream{}
	g.Seed(12345)
	state := uint64(12345)
	for i := 0; i < 4; i++ {
		want := mix(state)
		state += 0x9e3779b97f4a7c15
		if got := g.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	// SplitMix64's reference vector for seed 1234567.
	g.Seed(1234567)
	for i, want := range []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423} {
		if got := g.Uint64(); got != want {
			t.Fatalf("seed 1234567 draw %d = %d, want %d", i, got, want)
		}
	}
}

// TestAppendClaimBatchMatchesAppendClaim: every behaviour's batch form
// appends the bytes of k AppendClaim calls in index order behind a prefix
// it leaves alone, reports where each claim ends, and evaluates f exactly
// as often as the single calls do — k times for the honest and malicious
// producers, once per input in D' for the semi-honest cheater, whose
// membership and guess stream are those of single claims.
func TestAppendClaimBatchMatchesAppendClaim(t *testing.T) {
	starts := []uint64{0, 255, 1<<32 + 5, 1<<64 - 40}
	sizes := []int{1, 2, 3, 16, 17, 31, 40}
	for _, name := range workload.Names() {
		f, err := workload.New(name, 7)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		single, batched := workload.Count(f), workload.Count(f)
		producers := func(f workload.Function) []Producer {
			semi, err := NewSemiHonest(f, 0.5, 3)
			if err != nil {
				t.Fatalf("NewSemiHonest: %v", err)
			}
			malicious, err := NewMalicious(f, 0.5, 3)
			if err != nil {
				t.Fatalf("NewMalicious: %v", err)
			}
			return []Producer{NewHonest(f), semi, malicious}
		}
		singles, batches := producers(single), producers(batched)
		for pi, p := range batches {
			for _, x0 := range starts {
				for _, k := range sizes {
					single.Reset()
					batched.Reset()
					prefix := []byte("prefix")
					want := bytes.Clone(prefix)
					wantEnds := make([]int, k)
					for i := range k {
						want = singles[pi].AppendClaim(want, x0+uint64(i))
						wantEnds[i] = len(want)
					}
					ends := make([]int, k)
					got := p.AppendClaimBatch(bytes.Clone(prefix), x0, ends)
					if !bytes.Equal(got, want) || !slices.Equal(ends, wantEnds) {
						t.Fatalf("%s over %s: AppendClaimBatch(prefix, %d, [%d]) = %x ending %v, want %x ending %v",
							p.Name(), name, x0, k, got, ends, want, wantEnds)
					}
					if batched.Evals() != single.Evals() {
						t.Fatalf("%s over %s: a batch of %d from %d evaluates f %d times, single claims %d",
							p.Name(), name, k, x0, batched.Evals(), single.Evals())
					}
					if _, semi := p.(*SemiHonest); !semi && batched.Evals() != int64(k) {
						t.Fatalf("%s over %s: a batch of %d evaluates f %d times", p.Name(), name, k, batched.Evals())
					}
				}
			}
		}
	}
}
