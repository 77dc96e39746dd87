package workload

import (
	"fmt"
	"math/big"
	"math/rand"
)

// Mersenne models the GIMPS project cited in the paper's introduction: input
// x names a candidate exponent and f(x) decides whether the Mersenne number
// M_p = 2^p - 1 is prime, using a trial-division pre-filter on p followed by
// the Lucas-Lehmer test.
//
// The output is a single byte in {0, 1}, which makes this the paper's
// q = 0.5 case (Fig. 2's upper curve): a cheater guessing a binary result is
// right half the time. GuessOutput draws uniformly from {0, 1}, matching the
// paper's model of an unbiased guess.
type Mersenne struct {
	seed uint64
	// exponentSpan bounds the exponent so evaluation cost stays within a
	// simulation-friendly envelope.
	exponentSpan uint64
}

var _ Function = (*Mersenne)(nil)

// NewMersenne creates a Mersenne-prime testing workload.
func NewMersenne(seed uint64) *Mersenne {
	return &Mersenne{seed: seed, exponentSpan: 256}
}

// Name implements Function.
func (m *Mersenne) Name() string { return "mersenne" }

// Exponent maps input x to the odd exponent p it tests.
func (m *Mersenne) Exponent(x uint64) uint64 {
	// Mix the seed in so different runs scan different exponent windows.
	base := 3 + 2*(m.seed%1000)
	return base + 2*(x%m.exponentSpan)
}

// AppendEval implements Function: 1 if M_p is prime, else 0. M_p can only
// be prime when p is prime.
func (m *Mersenne) AppendEval(dst []byte, x uint64) []byte {
	p := m.Exponent(x)
	if isPrimeUint64(p) && lucasLehmer(p) {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Eval implements Function.
func (m *Mersenne) Eval(x uint64) []byte { return m.AppendEval(nil, x) }

// AppendEvalBatch implements Function: one AppendEval call per input.
func (m *Mersenne) AppendEvalBatch(dst []byte, x0 uint64, ends []int) []byte {
	return appendEvalEach(m, dst, x0, ends)
}

// GuessOutput implements Function: an unbiased coin, the paper's q = 0.5
// guesser. (A sharper cheater could exploit the skew toward 0; the paper's
// analysis parameterizes exactly this through q.)
func (m *Mersenne) GuessOutput(_ uint64, rng *rand.Rand) []byte {
	return []byte{byte(rng.Intn(2))}
}

// GuessProb implements Function.
func (m *Mersenne) GuessProb() float64 { return 0.5 }

// Screener reports discovered Mersenne primes.
func (m *Mersenne) Screener() Screener {
	return ScreenerFunc(func(x uint64, output []byte) (string, bool) {
		if len(output) != 1 || output[0] != 1 {
			return "", false
		}
		return fmt.Sprintf("mersenne prime: 2^%d-1", m.Exponent(x)), true
	})
}

// lucasLehmer reports whether M_p = 2^p - 1 is prime for an odd prime p.
// s_0 = 4; s_i = s_{i-1}^2 - 2 mod M_p; M_p is prime iff s_{p-2} = 0.
func lucasLehmer(p uint64) bool {
	if p == 2 {
		return true
	}
	mp := new(big.Int).Lsh(big.NewInt(1), uint(p))
	mp.Sub(mp, big.NewInt(1))
	s := big.NewInt(4)
	two := big.NewInt(2)
	for i := uint64(0); i < p-2; i++ {
		s.Mul(s, s)
		s.Sub(s, two)
		s.Mod(s, mp)
	}
	return s.Sign() == 0
}

// isPrimeUint64 is deterministic trial division; exponents are small so this
// is cheap relative to Lucas-Lehmer.
func isPrimeUint64(n uint64) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := uint64(3); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}
