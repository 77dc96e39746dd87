package workload

import (
	"bytes"
	"fmt"
	"math/rand"

	"uncheatgrid/internal/shortsha"
)

// Password is the paper's running example (Section 3): breaking a password
// by brute force, i.e. inverting a one-way function over a keyspace. Here
// f(x) = SHA-256(salt || x) over a 2^KeyBits keyspace, the salt being the
// seed big-endian, and the screener reports any x whose digest equals the
// target.
//
// The output is a 32-byte digest, so the guessing probability q is
// negligible (2^-256). Because f itself is one-way, this workload is also
// the one class the ringer scheme of Golle-Mironov supports, making it the
// comparison substrate for the baselines.
type Password struct {
	seed    uint64
	keyBits uint
	target  []byte
}

var _ Function = (*Password)(nil)

// NewPassword creates a keyspace-search workload over 2^keyBits keys. The
// hidden password is derived from the seed so that every run has exactly one
// hit inside the keyspace.
func NewPassword(seed uint64, keyBits uint) *Password {
	if keyBits == 0 || keyBits > 63 {
		keyBits = 20
	}
	p := &Password{seed: seed, keyBits: keyBits}
	secret := splitmix(seed) & ((1 << keyBits) - 1)
	p.target = p.Eval(secret)
	return p
}

// Name implements Function.
func (p *Password) Name() string { return "password" }

// KeyBits reports the keyspace width.
func (p *Password) KeyBits() uint { return p.keyBits }

// Target returns the digest of the hidden password.
func (p *Password) Target() []byte {
	return append([]byte(nil), p.target...)
}

// AppendEval implements Function: f(x) = SHA-256(salt || x).
func (p *Password) AppendEval(dst []byte, x uint64) []byte {
	in := seededInput(p.seed, x)
	sum := shortsha.Sum256(in[:])
	return append(dst, sum[:]...)
}

// AppendEvalBatch implements Function: the digests in shortsha.Batch runs.
func (p *Password) AppendEvalBatch(dst []byte, x0 uint64, ends []int) []byte {
	return appendChainBatch(dst, x0, ends, p.seed, 1, 8*shortsha.Size)
}

// Eval implements Function.
func (p *Password) Eval(x uint64) []byte { return p.AppendEval(nil, x) }

// GuessOutput implements Function: a random 32-byte digest.
func (p *Password) GuessOutput(_ uint64, rng *rand.Rand) []byte {
	guess := make([]byte, shortsha.Size)
	rng.Read(guess)
	return guess
}

// GuessProb implements Function. Guessing a 256-bit digest never succeeds
// in practice.
func (p *Password) GuessProb() float64 { return 0 }

// Screener returns the screener that reports keys matching the target
// digest — the "results of interest" of the search.
func (p *Password) Screener() Screener {
	target := p.target
	return ScreenerFunc(func(x uint64, output []byte) (string, bool) {
		if !bytes.Equal(output, target) {
			return "", false
		}
		return fmt.Sprintf("password found: key=%d", x), true
	})
}

// splitmix is the SplitMix64 mixer; used to derive hidden parameters from
// seeds without correlating them with the evaluated function.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
