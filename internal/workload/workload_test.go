package workload

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestRegistryKnowsAllWorkloads(t *testing.T) {
	want := []string{"drugscreen", "factor", "mersenne", "password", "signal", "synthetic"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		f, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if f.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, f.Name())
		}
	}
}

func TestRegistryUnknownName(t *testing.T) {
	if _, err := New("nope", 1); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("New(nope): err = %v, want ErrUnknownFunction", err)
	}
}

func TestEveryWorkloadIsDeterministic(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, err := New(name, 99)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			b, err := New(name, 99)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for x := uint64(0); x < 8; x++ {
				if !bytes.Equal(a.Eval(x), b.Eval(x)) {
					t.Fatalf("Eval(%d) differs across instances with equal seeds", x)
				}
				if !bytes.Equal(a.Eval(x), a.Eval(x)) {
					t.Fatalf("Eval(%d) differs across calls", x)
				}
			}
		})
	}
}

func TestSeedChangesOutputs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, err := New(name, 1)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			b, err := New(name, 2)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			differs := false
			for x := uint64(0); x < 32 && !differs; x++ {
				differs = !bytes.Equal(a.Eval(x), b.Eval(x))
			}
			if !differs {
				t.Fatal("outputs identical across different seeds")
			}
		})
	}
}

func TestGuessOutputMatchesEvalFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			f, err := New(name, 5)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for x := uint64(0); x < 4; x++ {
				real := f.Eval(x)
				guess := f.GuessOutput(x, rng)
				if len(guess) != len(real) {
					t.Fatalf("guess length %d != eval length %d", len(guess), len(real))
				}
			}
		})
	}
}

func TestGuessProbBounds(t *testing.T) {
	for _, name := range Names() {
		f, err := New(name, 5)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		q := f.GuessProb()
		if q < 0 || q > 1 {
			t.Errorf("%s: GuessProb() = %v outside [0,1]", name, q)
		}
	}
}

func TestCounterCountsEvalsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Count(NewSynthetic(1, 1, 64))
	if got := c.Evals(); got != 0 {
		t.Fatalf("fresh counter Evals() = %d", got)
	}
	c.Eval(1)
	c.Eval(2)
	c.GuessOutput(3, rng) // guesses are free
	if got := c.Evals(); got != 2 {
		t.Fatalf("Evals() = %d, want 2", got)
	}
	c.Reset()
	if got := c.Evals(); got != 0 {
		t.Fatalf("after Reset, Evals() = %d", got)
	}
	if c.Name() != "synthetic" || c.GuessProb() != c.Unwrap().GuessProb() {
		t.Fatal("Counter does not delegate metadata")
	}
}

func TestCounterEvalMatchesInner(t *testing.T) {
	inner := NewSynthetic(3, 2, 64)
	c := Count(inner)
	if !bytes.Equal(c.Eval(42), inner.Eval(42)) {
		t.Fatal("Counter.Eval differs from inner Eval")
	}
}

// goldenInputs and goldenOutputs pin f's bytes: the table was recorded from
// Eval at the commit before AppendEval existed (PR 16), for every registered
// workload at two seeds. Commitments, proofs and verdicts are functions of
// these bytes, so a workload edit that moves one of them is a protocol
// change, not a refactor.
var goldenInputs = [6]uint64{0, 1, 2, 255, 1<<32 + 5, 1<<64 - 1}

var goldenOutputs = []struct {
	name string
	seed uint64
	hex  [6]string
}{
	{"drugscreen", 1, [6]string{"0f4d229b9c740e3e", "fecddb23dadfe1a7", "8ba3e7924ebfad3f", "b4144142aaf5eb70", "95623a5652b17561", "7fa7c3c309071a09"}},
	{"drugscreen", 7, [6]string{"b0bab2847acb208f", "658400fb83251a96", "bbc4d70b4a9d1ca0", "f373777f579aec6c", "93a90053867aee79", "16e310bb656e76e1"}},
	{"factor", 1, [6]string{"00008c890000b50f", "00009d970000f223", "0000b32d0000d289", "0000e6bd0000f7eb", "000081430000cfd1", "0000941300009ef5"}},
	{"factor", 7, [6]string{"0000abf10000d12f", "00009cbb0000f5b7", "0000de3b0000f403", "0000b7910000bd17", "0000a9fd0000e17f", "0000bb4b0000d0bd"}},
	{"mersenne", 1, [6]string{"01", "01", "00", "00", "00", "00"}},
	{"mersenne", 7, [6]string{"01", "01", "00", "00", "00", "00"}},
	{"password", 1, [6]string{"783825822a6f9e62da2190e828e4c9d2576e5977e3a0b3620b092dfb9e9996fa", "532deabf88729cb43995ab5a9cd49bf9b90a079904dc0645ecda9e47ce7345a9", "8c7654ecfd7b0b623b803e2f4e02ad1cc84278efdfcd7c4c9208edd81f17e115", "dcb9ffd3e95fcd1a515ce208f13d0fe803b0bbe14b805a799b262796eee27984", "1e30907470bd0675e1c386f4947222ea85050ba98cfe9f6f6ddedeb533f93800", "193ac9f4b115b42ea40c1a1687ea865cceccf741a5b995cd91f1d26153efabb9"}},
	{"password", 7, [6]string{"e8dd943d366caae7beb706c6ae668eff0a257fc56edc27d7b2fa1c31bdf2eec1", "4ff190b4c2c573ec999d8db75f206447737dbb0dd91de74917aa7456d169c246", "8d91efc5106ff3a3dc7e5449c4bbe05a8f5affc9f0f711ac2b1f3451159251a8", "c3471ebc0faead18d3a2194815c721f88ede5e959d837102a56b01dd34c8432b", "450e7fb187b2e91d6e027164efb3102e4086bd5609cab14cebbe700043e92f10", "76d53b67c202783ee8278032d990f82d6543a847452c48fef4fb1830c941c2b6"}},
	{"signal", 1, [6]string{"000c0000000000000d4b", "001e0000000000000e0f", "000c0000000000000dc8", "00140000000000001075", "001a000000000000102d", "00190000000000000da6"}},
	{"signal", 7, [6]string{"00140000000000000c2a", "001b0000000000000ef9", "0010000000000000205e", "000900000000000009c7", "001b0000000000000a71", "00030000000000000ec1"}},
	{"synthetic", 1, [6]string{"0f4d229b9c740e3e", "fecddb23dadfe1a7", "8ba3e7924ebfad3f", "b4144142aaf5eb70", "95623a5652b17561", "7fa7c3c309071a09"}},
	{"synthetic", 7, [6]string{"b0bab2847acb208f", "658400fb83251a96", "bbc4d70b4a9d1ca0", "f373777f579aec6c", "93a90053867aee79", "16e310bb656e76e1"}},
}

// checkAppendForms asserts the three ways of asking f for f(x) all give
// want: Eval, AppendEval onto nil, and AppendEval onto a prefix — which must
// come back untouched, extended by exactly want, with nothing written past
// the new length.
func checkAppendForms(t *testing.T, f Function, x uint64, want []byte) {
	t.Helper()
	if got := f.Eval(x); !bytes.Equal(got, want) {
		t.Errorf("Eval(%d) = %x, want %x", x, got, want)
	}
	if got := f.AppendEval(nil, x); !bytes.Equal(got, want) {
		t.Errorf("AppendEval(nil, %d) = %x, want %x", x, got, want)
	}
	// A buffer with room to spare, filled with a sentinel: the append lands
	// in place, so a write past its end would show in the tail.
	const sentinel = 0xa5
	prefix := []byte("prefix")
	backing := bytes.Repeat([]byte{sentinel}, len(prefix)+len(want)+16)
	copy(backing, prefix)
	got := f.AppendEval(backing[:len(prefix)], x)
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Errorf("AppendEval(prefix, %d) rewrote the prefix: %q", x, got[:len(prefix)])
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("AppendEval(prefix, %d) appended %x, want %x", x, got[len(prefix):], want)
	}
	if &got[0] != &backing[0] {
		t.Errorf("AppendEval(prefix, %d) left a buffer with room for the output", x)
	}
	for i, b := range backing[len(prefix)+len(want):] {
		if b != sentinel {
			t.Errorf("AppendEval(prefix, %d) wrote %d bytes past the end of its output", x, i+1)
			break
		}
	}
}

func TestOutputBytesMatchRecordedEval(t *testing.T) {
	for _, g := range goldenOutputs {
		f, err := New(g.name, g.seed)
		if err != nil {
			t.Fatalf("New(%q, %d): %v", g.name, g.seed, err)
		}
		for i, x := range goldenInputs {
			want, err := hex.DecodeString(g.hex[i])
			if err != nil {
				t.Fatalf("bad table entry %s/%d/%d: %v", g.name, g.seed, x, err)
			}
			t.Run(fmt.Sprintf("%s/seed%d/x%d", g.name, g.seed, x), func(t *testing.T) {
				checkAppendForms(t, f, x, want)
			})
		}
	}
	if len(goldenOutputs) != 2*len(Names()) {
		t.Fatalf("table covers %d (workload, seed) pairs, registry has %d workloads", len(goldenOutputs), len(Names()))
	}
}

func TestCounterAppendFormsCountOncePerCall(t *testing.T) {
	inner := NewSynthetic(3, 2, 64)
	c := Count(inner)
	for _, x := range goldenInputs {
		checkAppendForms(t, c, x, inner.Eval(x))
	}
	// checkAppendForms evaluates three times per input.
	if got, want := c.Evals(), int64(3*len(goldenInputs)); got != want {
		t.Fatalf("Evals() = %d after %d calls", got, want)
	}
}

func TestAsOutputVerifierUnwrapsCounters(t *testing.T) {
	factor := NewFactor(1)
	if _, ok := AsOutputVerifier(factor); !ok {
		t.Fatal("Factor should be an OutputVerifier")
	}
	if _, ok := AsOutputVerifier(Count(factor)); !ok {
		t.Fatal("Counter-wrapped Factor should unwrap to an OutputVerifier")
	}
	if _, ok := AsOutputVerifier(Count(Count(factor))); !ok {
		t.Fatal("doubly wrapped Factor should unwrap")
	}
	if _, ok := AsOutputVerifier(NewSynthetic(1, 1, 8)); ok {
		t.Fatal("Synthetic must not claim cheap verification")
	}
}

func TestPasswordScreenerFindsExactlyTheSecret(t *testing.T) {
	p := NewPassword(123, 12) // 4096 keys: exhaustive scan is fast
	screener := p.Screener()
	hits := 0
	var hitKey uint64
	for x := uint64(0); x < 1<<12; x++ {
		if _, ok := screener.Screen(x, p.Eval(x)); ok {
			hits++
			hitKey = x
		}
	}
	if hits != 1 {
		t.Fatalf("screener reported %d hits, want exactly 1", hits)
	}
	if !bytes.Equal(p.Eval(hitKey), p.Target()) {
		t.Fatal("reported key does not hash to the target")
	}
}

func TestPasswordKeyBitsClamped(t *testing.T) {
	if got := NewPassword(1, 0).KeyBits(); got != 20 {
		t.Errorf("KeyBits(0 clamped) = %d, want 20", got)
	}
	if got := NewPassword(1, 64).KeyBits(); got != 20 {
		t.Errorf("KeyBits(64 clamped) = %d, want 20", got)
	}
	if got := NewPassword(1, 16).KeyBits(); got != 16 {
		t.Errorf("KeyBits(16) = %d, want 16", got)
	}
}

func TestDrugScreenThresholdIsSelective(t *testing.T) {
	d := NewDrugScreen(77)
	screener := d.Screener()
	hits := 0
	const n = 1 << 13
	for x := uint64(0); x < n; x++ {
		if _, ok := screener.Screen(x, d.Eval(x)); ok {
			hits++
		}
	}
	// Expected rate 2^-14 → about 0.5 hits over 2^13; allow generous slack.
	if hits > 8 {
		t.Fatalf("screener reported %d of %d molecules; threshold is not selective", hits, n)
	}
	if _, ok := screener.Screen(1, []byte{1, 2, 3}); ok {
		t.Fatal("screener accepted a malformed output")
	}
}

func TestSignalScreenerMatchesGroundTruth(t *testing.T) {
	s := NewSignal(5, 64)
	screener := s.Screener()
	var tones, reported, agree int
	const n = 2048
	for x := uint64(0); x < n; x++ {
		_, ok := screener.Screen(x, s.Eval(x))
		truth := s.HasTone(x)
		if truth {
			tones++
		}
		if ok {
			reported++
		}
		if ok == truth {
			agree++
		}
	}
	if tones == 0 {
		t.Fatal("no injected tones in 2048 chunks; generator broken")
	}
	if reported == 0 {
		t.Fatal("screener reported nothing despite injected tones")
	}
	if agree < n-2 { // the synthetic SNR margin is wide; allow edge noise
		t.Fatalf("screener agrees with ground truth on %d/%d chunks", agree, n)
	}
}

func TestSignalChunkLenRounding(t *testing.T) {
	tests := []struct {
		give int
		want int
	}{
		{give: 0, want: 16},
		{give: 16, want: 16},
		{give: 17, want: 32},
		{give: 64, want: 64},
		{give: 100, want: 128},
	}
	for _, tt := range tests {
		if got := NewSignal(1, tt.give).ChunkLen(); got != tt.want {
			t.Errorf("ChunkLen(%d) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestMersenneKnownPrimes(t *testing.T) {
	// Classical results: M_p prime for p in {3,5,7,13,17,19,31,61,89,107,127}
	// and composite for the other primes below 128.
	primesWithMersennePrime := map[uint64]bool{
		3: true, 5: true, 7: true, 13: true, 17: true, 19: true,
		31: true, 61: true, 89: true, 107: true, 127: true,
	}
	for p := uint64(3); p <= 127; p += 2 {
		if !isPrimeUint64(p) {
			continue
		}
		want := primesWithMersennePrime[p]
		if got := lucasLehmer(p); got != want {
			t.Errorf("lucasLehmer(%d) = %v, want %v", p, got, want)
		}
	}
}

func TestMersenneCompositeExponentIsZero(t *testing.T) {
	m := NewMersenne(0) // base exponent 3: x=3 → exponent 9, composite
	var x uint64
	found := false
	for x = 0; x < 50; x++ {
		if !isPrimeUint64(m.Exponent(x)) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no composite exponent in range; test setup broken")
	}
	if out := m.Eval(x); len(out) != 1 || out[0] != 0 {
		t.Fatalf("Eval(composite exponent) = %v, want [0]", out)
	}
}

func TestMersenneGuessIsCoinFlip(t *testing.T) {
	m := NewMersenne(1)
	rng := rand.New(rand.NewSource(3))
	counts := map[byte]int{}
	for i := 0; i < 2000; i++ {
		g := m.GuessOutput(0, rng)
		if len(g) != 1 || g[0] > 1 {
			t.Fatalf("guess %v outside {0,1}", g)
		}
		counts[g[0]]++
	}
	if counts[0] < 800 || counts[1] < 800 {
		t.Fatalf("guess distribution skewed: %v", counts)
	}
	if m.GuessProb() != 0.5 {
		t.Fatalf("GuessProb() = %v, want 0.5", m.GuessProb())
	}
}

func TestFactorEvalVerifies(t *testing.T) {
	f := NewFactor(11)
	for x := uint64(0); x < 20; x++ {
		out := f.Eval(x)
		if !f.VerifyOutput(x, out) {
			t.Fatalf("VerifyOutput rejected Eval's own output for x=%d", x)
		}
	}
}

func TestFactorVerifyRejectsWrongFactors(t *testing.T) {
	f := NewFactor(11)
	out := f.Eval(3)

	tests := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{name: "flip byte", mutate: func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[3] ^= 0x01
			return c
		}},
		{name: "swap order", mutate: func(b []byte) []byte {
			c := make([]byte, 8)
			copy(c[:4], b[4:])
			copy(c[4:], b[:4])
			return c
		}},
		{name: "short", mutate: func(b []byte) []byte { return b[:7] }},
		{name: "ones", mutate: func([]byte) []byte {
			return []byte{0, 0, 0, 1, 0, 0, 0, 1}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mutated := tt.mutate(out)
			if bytes.Equal(mutated, out) {
				t.Skip("mutation produced identical output")
			}
			if f.VerifyOutput(3, mutated) {
				t.Fatal("VerifyOutput accepted a wrong factorization")
			}
		})
	}
}

func TestFactorVerifyRejectsCompositeFactors(t *testing.T) {
	// 1 * N passes the product check but 1 is not prime; similarly a
	// composite pair whose product happens to be right must fail. Build a
	// fake pair from the modulus itself.
	f := NewFactor(2)
	n := f.Modulus(0)
	fake := appendFactorPair(nil, 1, n)
	if f.VerifyOutput(0, fake) {
		t.Fatal("VerifyOutput accepted 1 × N")
	}
}

func TestSyntheticOutputBits(t *testing.T) {
	tests := []struct {
		bits     uint
		wantLen  int
		wantProb float64
	}{
		{bits: 1, wantLen: 1, wantProb: 0.5},
		{bits: 8, wantLen: 1, wantProb: 1.0 / 256},
		{bits: 12, wantLen: 2, wantProb: 1.0 / 4096},
		{bits: 64, wantLen: 8, wantProb: 5.421010862427522e-20},
	}
	for _, tt := range tests {
		s := NewSynthetic(1, 1, tt.bits)
		out := s.Eval(7)
		if len(out) != tt.wantLen {
			t.Errorf("bits=%d: output length %d, want %d", tt.bits, len(out), tt.wantLen)
		}
		if got := s.GuessProb(); got != tt.wantProb {
			t.Errorf("bits=%d: GuessProb() = %v, want %v", tt.bits, got, tt.wantProb)
		}
	}
}

func TestSyntheticOneBitOutputsAreMasked(t *testing.T) {
	s := NewSynthetic(9, 1, 1)
	rng := rand.New(rand.NewSource(4))
	for x := uint64(0); x < 64; x++ {
		if out := s.Eval(x); out[0]&0x7f != 0 {
			t.Fatalf("Eval(%d) = %08b has bits below the top bit", x, out[0])
		}
		if g := s.GuessOutput(x, rng); g[0]&0x7f != 0 {
			t.Fatalf("guess has bits below the top bit: %08b", g[0])
		}
	}
}

func TestSyntheticOneBitGuessMatchesRateQ(t *testing.T) {
	// Empirically confirm Pr[guess == eval] ≈ q = 0.5 for 1-bit outputs —
	// the exact premise of the paper's Fig. 2 upper curve.
	s := NewSynthetic(21, 1, 1)
	rng := rand.New(rand.NewSource(8))
	matches := 0
	const trials = 4000
	for x := uint64(0); x < trials; x++ {
		if bytes.Equal(s.Eval(x), s.GuessOutput(x, rng)) {
			matches++
		}
	}
	rate := float64(matches) / trials
	if rate < 0.45 || rate > 0.55 {
		t.Fatalf("guess match rate = %v, want ≈ 0.5", rate)
	}
}

func TestSyntheticClamping(t *testing.T) {
	s := NewSynthetic(1, 0, 0)
	if s.CostIters() != 1 {
		t.Errorf("CostIters clamped = %d, want 1", s.CostIters())
	}
	if s.OutputBits() != 1 {
		t.Errorf("OutputBits clamped = %d, want 1", s.OutputBits())
	}
	if got := NewSynthetic(1, 1, 999).OutputBits(); got != 256 {
		t.Errorf("OutputBits(999) = %d, want 256", got)
	}
}

// TestAppendEvalBatchMatchesAppendEval: for every workload the batch form
// appends exactly the bytes of k AppendEval calls over x0, x0+1, …, in
// index order, behind a prefix it leaves alone, and reports where each
// ends; through a Counter it counts k evaluations. The sizes cover a full
// run of shortsha.Lanes, runs with a pair and a single left over, and the
// top of the input domain.
func TestAppendEvalBatchMatchesAppendEval(t *testing.T) {
	starts := []uint64{0, 5, 1<<32 - 3, 1<<64 - 40}
	sizes := []int{1, 2, 3, 15, 16, 17, 18, 31, 33, 40}
	for _, name := range Names() {
		f, err := New(name, 7)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		c := Count(f)
		counted := 0
		for _, x0 := range starts {
			for _, k := range sizes {
				prefix := []byte("prefix")
				want := bytes.Clone(prefix)
				wantEnds := make([]int, k)
				for i := range k {
					want = f.AppendEval(want, x0+uint64(i))
					wantEnds[i] = len(want)
				}
				ends := make([]int, k)
				got := c.AppendEvalBatch(bytes.Clone(prefix), x0, ends)
				counted += k
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: AppendEvalBatch(prefix, %d, [%d]) = %x, want %x", name, x0, k, got, want)
				}
				if !slices.Equal(ends, wantEnds) {
					t.Fatalf("%s: AppendEvalBatch(prefix, %d, [%d]) ends at %v, want %v", name, x0, k, ends, wantEnds)
				}
			}
		}
		if got := c.Evals(); got != int64(counted) {
			t.Errorf("%s: Counter counted %d evaluations for %d batched inputs", name, got, counted)
		}
	}
}
