package workload

import (
	"encoding/binary"

	"math/rand"
)

// Factor models the paper's Section 3.1 remark that "factoring large numbers
// is an expensive computation, but verifying the factoring results is
// trivial": it is the workload whose supervisor-side check does not require
// recomputing f.
//
// Input x names a semiprime N(x) = p·q with 16-bit prime factors derived
// deterministically from (seed, x). Eval factors N(x) by trial division
// (~2^15 divisions); VerifyOutput merely checks p·q = N(x) and the primality
// of two 16-bit numbers (a few dozen operations). The output is the pair
// (p, q), so q_guess ≈ 0.
type Factor struct {
	seed uint64
}

var (
	_ Function       = (*Factor)(nil)
	_ OutputVerifier = (*Factor)(nil)
)

// NewFactor creates a semiprime-factoring workload.
func NewFactor(seed uint64) *Factor {
	return &Factor{seed: seed}
}

// Name implements Function.
func (f *Factor) Name() string { return "factor" }

// Modulus returns the semiprime N(x) the participant must factor.
func (f *Factor) Modulus(x uint64) uint64 {
	p, q := f.factors(x)
	return p * q
}

// factors derives the two hidden 16-bit primes for input x.
func (f *Factor) factors(x uint64) (uint64, uint64) {
	h := splitmix(f.seed ^ splitmix(x))
	p := nextPrimeAtLeast(1<<15 | (h & 0x7fff))
	q := nextPrimeAtLeast(1<<15 | ((h >> 20) & 0x7fff))
	return p, q
}

// AppendEval implements Function: factor N(x) by trial division and append
// the factor pair min||max as two 4-byte big-endian words.
func (f *Factor) AppendEval(dst []byte, x uint64) []byte {
	n := f.Modulus(x)
	var p uint64
	for d := uint64(3); d*d <= n; d += 2 {
		if n%d == 0 {
			p = d
			break
		}
	}
	if p == 0 {
		// Unreachable: n is a product of two odd 16-bit primes.
		p = n
	}
	return appendFactorPair(dst, p, n/p)
}

// Eval implements Function.
func (f *Factor) Eval(x uint64) []byte { return f.AppendEval(nil, x) }

// AppendEvalBatch implements Function: one AppendEval call per input.
func (f *Factor) AppendEvalBatch(dst []byte, x0 uint64, ends []int) []byte {
	return appendEvalEach(f, dst, x0, ends)
}

// GuessOutput implements Function: two random odd 16-bit values.
func (f *Factor) GuessOutput(_ uint64, rng *rand.Rand) []byte {
	a := uint64(1<<15 | rng.Intn(1<<15) | 1)
	b := uint64(1<<15 | rng.Intn(1<<15) | 1)
	if a > b {
		a, b = b, a
	}
	return appendFactorPair(nil, a, b)
}

// GuessProb implements Function: hitting both hidden primes by chance is
// negligible.
func (f *Factor) GuessProb() float64 { return 0 }

// VerifyOutput implements OutputVerifier: the cheap check the supervisor
// runs instead of refactoring N(x).
func (f *Factor) VerifyOutput(x uint64, output []byte) bool {
	if len(output) != 8 {
		return false
	}
	p := uint64(binary.BigEndian.Uint32(output[:4]))
	q := uint64(binary.BigEndian.Uint32(output[4:]))
	if p < 2 || q < 2 || p > q {
		return false
	}
	return p*q == f.Modulus(x) && isPrimeUint64(p) && isPrimeUint64(q)
}

// Screener reports nothing: the factorizations themselves are the product of
// the computation, retrieved through CBS proofs or bulk upload. A screener
// that always declines models the paper's "very small number of results of
// interest" in the extreme.
func (f *Factor) Screener() Screener {
	return ScreenerFunc(func(uint64, []byte) (string, bool) { return "", false })
}

func appendFactorPair(dst []byte, p, q uint64) []byte {
	var pair [8]byte
	binary.BigEndian.PutUint32(pair[:4], uint32(p))
	binary.BigEndian.PutUint32(pair[4:], uint32(q))
	return append(dst, pair[:]...)
}

// nextPrimeAtLeast returns the smallest prime >= n (n is made odd first).
func nextPrimeAtLeast(n uint64) uint64 {
	if n < 3 {
		return 3
	}
	if n%2 == 0 {
		n++
	}
	for !isPrimeUint64(n) {
		n += 2
	}
	return n
}
