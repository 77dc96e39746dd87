package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"uncheatgrid/internal/cheat"
	"uncheatgrid/internal/workload"
)

func checkAgainst(f workload.Function) CheckFunc {
	return func(index uint64, output []byte) error {
		want := f.Eval(index)
		if string(want) != string(output) {
			return fmt.Errorf("output mismatch at %d", index)
		}
		return nil
	}
}

func claims(p cheat.Producer, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = p.AppendClaim(nil, uint64(i))
	}
	return out
}

func TestNaiveSamplingAcceptsHonest(t *testing.T) {
	f := workload.NewSynthetic(1, 1, 64)
	s, err := NewNaiveSampling(20, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewNaiveSampling: %v", err)
	}
	const n = 100
	if err := s.Verify(n, claims(cheat.NewHonest(f), n), checkAgainst(f)); err != nil {
		t.Fatalf("honest upload rejected: %v", err)
	}
}

func TestNaiveSamplingCatchesCheaterAtTheoremRate(t *testing.T) {
	// Naive sampling has the same detection probability as CBS: survival
	// (r + (1-r)q)^m with q≈0 here.
	const (
		n      = 64
		m      = 3
		r      = 0.5
		rounds = 300
	)
	survived := 0
	for round := 0; round < rounds; round++ {
		f := workload.NewSynthetic(uint64(round), 1, 64)
		producer, err := cheat.NewSemiHonest(f, r, uint64(round)*31)
		if err != nil {
			t.Fatalf("NewSemiHonest: %v", err)
		}
		s, err := NewNaiveSampling(m, rand.New(rand.NewSource(int64(round))))
		if err != nil {
			t.Fatalf("NewNaiveSampling: %v", err)
		}
		err = s.Verify(n, claims(producer, n), checkAgainst(f))
		var sampleErr *SampleError
		switch {
		case err == nil:
			survived++
		case errors.As(err, &sampleErr):
			if !errors.Is(err, ErrWrongResult) {
				t.Fatalf("unexpected failure class: %v", err)
			}
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	got := float64(survived) / rounds
	want := math.Pow(r, m)
	sigma := math.Sqrt(want * (1 - want) / rounds)
	if math.Abs(got-want) > 4*sigma+0.02 {
		t.Fatalf("survival = %v, want %v (Theorem 3 shape)", got, want)
	}
}

func TestNaiveSamplingValidation(t *testing.T) {
	if _, err := NewNaiveSampling(0, nil); !errors.Is(err, ErrBadSampleCount) {
		t.Errorf("m=0: err = %v, want ErrBadSampleCount", err)
	}
	s, err := NewNaiveSampling(5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewNaiveSampling: %v", err)
	}
	f := workload.NewSynthetic(1, 1, 64)
	if err := s.Verify(0, nil, checkAgainst(f)); !errors.Is(err, ErrBadDomain) {
		t.Errorf("n=0: err = %v, want ErrBadDomain", err)
	}
	if err := s.Verify(4, make([][]byte, 3), checkAgainst(f)); !errors.Is(err, ErrResultCountMismatch) {
		t.Errorf("short upload: err = %v, want ErrResultCountMismatch", err)
	}
	if err := s.Verify(4, make([][]byte, 4), nil); err == nil {
		t.Error("nil check accepted")
	}
}

func TestDoubleCheckUnanimousAgreement(t *testing.T) {
	f := workload.NewSynthetic(2, 1, 64)
	d, err := NewDoubleCheck(3)
	if err != nil {
		t.Fatalf("NewDoubleCheck: %v", err)
	}
	honest := claims(cheat.NewHonest(f), 32)
	verdict, err := d.Compare([][][]byte{honest, honest, honest})
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(verdict.Dissenters) != 0 || verdict.DisputedIndices != 0 {
		t.Fatalf("unanimous replicas flagged: %+v", verdict)
	}
	for i := range honest {
		if string(verdict.Canonical[i]) != string(honest[i]) {
			t.Fatalf("canonical differs at %d", i)
		}
	}
}

func TestDoubleCheckFlagsTheCheater(t *testing.T) {
	f := workload.NewSynthetic(3, 1, 64)
	d, err := NewDoubleCheck(3)
	if err != nil {
		t.Fatalf("NewDoubleCheck: %v", err)
	}
	cheater, err := cheat.NewSemiHonest(f, 0.5, 5)
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	const n = 64
	honest := claims(cheat.NewHonest(f), n)
	verdict, err := d.Compare([][][]byte{honest, claims(cheater, n), honest})
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(verdict.Dissenters) != 1 || verdict.Dissenters[0] != 1 {
		t.Fatalf("Dissenters = %v, want [1]", verdict.Dissenters)
	}
	if verdict.DisputedIndices == 0 {
		t.Fatal("no disputed indices despite a cheater")
	}
	// The majority result is the honest one.
	for i := range honest {
		if string(verdict.Canonical[i]) != string(honest[i]) {
			t.Fatalf("canonical corrupted at %d", i)
		}
	}
}

func TestDoubleCheckNoConsensus(t *testing.T) {
	d, err := NewDoubleCheck(2)
	if err != nil {
		t.Fatalf("NewDoubleCheck: %v", err)
	}
	a := [][]byte{{1}, {2}}
	b := [][]byte{{1}, {3}}
	if _, err := d.Compare([][][]byte{a, b}); !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("err = %v, want ErrNoConsensus", err)
	}
}

func TestDoubleCheckTwoAgainstOneColluders(t *testing.T) {
	// Redundancy's known weakness: two colluding cheaters outvote one
	// honest replica. The honest worker gets flagged — documenting why the
	// paper pursues sampling instead.
	f := workload.NewSynthetic(4, 1, 64)
	d, err := NewDoubleCheck(3)
	if err != nil {
		t.Fatalf("NewDoubleCheck: %v", err)
	}
	colluder, err := cheat.NewSemiHonest(f, 0, 9) // same seed ⇒ same fabrications
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	const n = 16
	lies := claims(colluder, n)
	honest := claims(cheat.NewHonest(f), n)
	verdict, err := d.Compare([][][]byte{lies, honest, lies})
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(verdict.Dissenters) != 1 || verdict.Dissenters[0] != 1 {
		t.Fatalf("Dissenters = %v; colluders should outvote the honest replica", verdict.Dissenters)
	}
}

func TestDoubleCheckValidation(t *testing.T) {
	if _, err := NewDoubleCheck(1); err == nil {
		t.Error("replicas=1 accepted")
	}
	d, err := NewDoubleCheck(2)
	if err != nil {
		t.Fatalf("NewDoubleCheck: %v", err)
	}
	if _, err := d.Compare([][][]byte{{{1}}}); err == nil {
		t.Error("wrong replica count accepted")
	}
	if _, err := d.Compare([][][]byte{{}, {}}); !errors.Is(err, ErrBadDomain) {
		t.Errorf("empty vectors: err = %v, want ErrBadDomain", err)
	}
	if _, err := d.Compare([][][]byte{{{1}}, {{1}, {2}}}); !errors.Is(err, ErrResultCountMismatch) {
		t.Errorf("ragged vectors: err = %v, want ErrResultCountMismatch", err)
	}
}

func TestRingerHonestParticipantFindsAll(t *testing.T) {
	p := workload.NewPassword(7, 10) // 1024 keys
	const n = 1 << 10
	rng := rand.New(rand.NewSource(2))
	set, err := PlantRingers(p.Eval, n, 8, rng)
	if err != nil {
		t.Fatalf("PlantRingers: %v", err)
	}
	honest := cheat.NewHonest(p)
	found := set.FindRingers(func(x uint64) []byte { return honest.AppendClaim(nil, x) }, n)
	if err := set.Verify(found); err != nil {
		t.Fatalf("honest participant failed ringer check: %v", err)
	}
}

func TestRingerCatchesLazyParticipant(t *testing.T) {
	// A cheater computing half the domain misses each ringer with
	// probability 1/2; with 8 ringers it survives ~0.4% of runs.
	p := workload.NewPassword(8, 10)
	const n = 1 << 10
	caught := 0
	const rounds = 50
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		set, err := PlantRingers(p.Eval, n, 8, rng)
		if err != nil {
			t.Fatalf("PlantRingers: %v", err)
		}
		lazy, err := cheat.NewSemiHonest(p, 0.5, uint64(round))
		if err != nil {
			t.Fatalf("NewSemiHonest: %v", err)
		}
		if err := set.Verify(set.FindRingers(func(x uint64) []byte { return lazy.AppendClaim(nil, x) }, n)); err != nil {
			if !errors.Is(err, ErrMissingRinger) {
				t.Fatalf("unexpected failure: %v", err)
			}
			caught++
		}
	}
	if caught < rounds-5 {
		t.Fatalf("caught %d/%d lazy runs; ringers should almost always catch r=0.5", caught, rounds)
	}
}

func TestRingerSecretsAreDistinctAndInRange(t *testing.T) {
	p := workload.NewPassword(9, 10)
	set, err := PlantRingers(p.Eval, 1<<10, 16, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("PlantRingers: %v", err)
	}
	seen := make(map[uint64]struct{})
	for _, s := range set.Secrets() {
		if s >= 1<<10 {
			t.Fatalf("secret %d out of range", s)
		}
		if _, dup := seen[s]; dup {
			t.Fatalf("duplicate secret %d", s)
		}
		seen[s] = struct{}{}
	}
	if set.M() != 16 {
		t.Fatalf("M() = %d, want 16", set.M())
	}
}

func TestRingerImagesSorted(t *testing.T) {
	// Sorted images must not leak plant positions.
	p := workload.NewPassword(10, 10)
	set, err := PlantRingers(p.Eval, 1<<10, 12, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatalf("PlantRingers: %v", err)
	}
	for i := 1; i < len(set.Images); i++ {
		if string(set.Images[i-1]) > string(set.Images[i]) {
			t.Fatal("images not sorted")
		}
	}
}

func TestRingerValidation(t *testing.T) {
	p := workload.NewPassword(11, 10)
	rng := rand.New(rand.NewSource(5))
	if _, err := PlantRingers(p.Eval, 0, 4, rng); !errors.Is(err, ErrBadDomain) {
		t.Errorf("n=0: err = %v, want ErrBadDomain", err)
	}
	if _, err := PlantRingers(p.Eval, 16, 0, rng); !errors.Is(err, ErrBadSampleCount) {
		t.Errorf("m=0: err = %v, want ErrBadSampleCount", err)
	}
	if _, err := PlantRingers(p.Eval, 4, 5, rng); err == nil {
		t.Error("m>n accepted")
	}
	if _, err := PlantRingers(nil, 16, 4, rng); err == nil {
		t.Error("nil eval accepted")
	}
}

func TestRingerVerifyIgnoresExtraReports(t *testing.T) {
	p := workload.NewPassword(12, 10)
	set, err := PlantRingers(p.Eval, 1<<10, 4, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatalf("PlantRingers: %v", err)
	}
	reported := append(set.Secrets(), 999, 1000)
	if err := set.Verify(reported); err != nil {
		t.Fatalf("extra reports rejected: %v", err)
	}
}
