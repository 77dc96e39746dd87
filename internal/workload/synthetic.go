package workload

import (
	"encoding/binary"
	"math"
	"math/rand"

	"uncheatgrid/internal/shortsha"
)

// Synthetic is the experiment workload: a hash-based function with tunable
// evaluation cost and output width. It lets the experiments dial in the
// paper's parameters directly:
//
//   - cost: Eval performs CostIters chained SHA-256 compressions, so the
//     cost ratio C_f/C_hash of Eq. 5 is simply CostIters — in time as well
//     as in count: the chain is shortsha.Chain, whose every link is one
//     block compressed in the kernel's registers with no wrapper, and
//     AppendEvalBatch runs consecutive inputs' chains side by side in the
//     kernel's lanes, the way the Merkle levels hash their nodes.
//   - q: outputs are OutputBits uniform bits, so a uniform guesser succeeds
//     with probability exactly q = 2^-OutputBits. OutputBits=1 reproduces
//     the paper's q = 0.5 curve in Fig. 2.
type Synthetic struct {
	seed       uint64
	costIters  int
	outputBits uint
}

var _ Function = (*Synthetic)(nil)

// NewSynthetic creates a synthetic workload. costIters < 1 is clamped to 1;
// outputBits is clamped to [1, 256].
func NewSynthetic(seed uint64, costIters int, outputBits uint) *Synthetic {
	if costIters < 1 {
		costIters = 1
	}
	if outputBits < 1 {
		outputBits = 1
	}
	if outputBits > 256 {
		outputBits = 256
	}
	return &Synthetic{seed: seed, costIters: costIters, outputBits: outputBits}
}

// Name implements Function.
func (s *Synthetic) Name() string { return "synthetic" }

// CostIters reports the number of hash compressions per evaluation.
func (s *Synthetic) CostIters() int { return s.costIters }

// OutputBits reports the output width in bits.
func (s *Synthetic) OutputBits() uint { return s.outputBits }

// AppendEval implements Function: CostIters chained hashes truncated to
// OutputBits.
func (s *Synthetic) AppendEval(dst []byte, x uint64) []byte {
	in := seededInput(s.seed, x)
	state := shortsha.Chain(in[:], s.costIters)
	return appendTruncated(dst, state[:], s.outputBits)
}

// AppendEvalBatch implements Function: the chains in shortsha.Batch runs.
func (s *Synthetic) AppendEvalBatch(dst []byte, x0 uint64, ends []int) []byte {
	return appendChainBatch(dst, x0, ends, s.seed, s.costIters, s.outputBits)
}

// seededInput is the first link's message of a chain-of-hashes f: the
// workload's seed and x, big-endian.
func seededInput(seed, x uint64) [16]byte {
	var in [16]byte
	binary.BigEndian.PutUint64(in[:8], seed)
	binary.BigEndian.PutUint64(in[8:], x)
	return in
}

// appendChainBatch is AppendEvalBatch for the workloads whose f(x) is the
// first bits of a SHA-256 chain of rounds links over seededInput(seed, x):
// shortsha.Lanes inputs per shortsha.Batch call, laid out and hashed on the
// stack.
func appendChainBatch(dst []byte, x0 uint64, ends []int, seed uint64, rounds int, bits uint) []byte {
	const inSize = 16
	var ins [shortsha.Lanes * inSize]byte
	var sums [shortsha.Lanes * shortsha.Size]byte
	for len(ends) > 0 {
		k := min(len(ends), shortsha.Lanes)
		for i := range k {
			in := seededInput(seed, x0+uint64(i))
			copy(ins[i*inSize:], in[:])
		}
		shortsha.Batch(sums[:k*shortsha.Size], ins[:], inSize, inSize, rounds)
		for i := range k {
			dst = appendTruncated(dst, sums[i*shortsha.Size:], bits)
			ends[i] = len(dst)
		}
		x0 += uint64(k)
		ends = ends[k:]
	}
	return dst
}

// Eval implements Function.
func (s *Synthetic) Eval(x uint64) []byte { return s.AppendEval(nil, x) }

// GuessOutput implements Function: uniform random bits in the same format.
func (s *Synthetic) GuessOutput(_ uint64, rng *rand.Rand) []byte {
	raw := make([]byte, (s.outputBits+7)/8)
	rng.Read(raw)
	return appendTruncated(raw[:0], raw, s.outputBits)
}

// GuessProb implements Function: exactly 2^-OutputBits.
func (s *Synthetic) GuessProb() float64 {
	return math.Pow(2, -float64(s.outputBits))
}

// Screener reports a sparse pseudo-random subset (~1/1024) of outputs so
// that end-to-end runs exercise the reporting path.
func (s *Synthetic) Screener() Screener {
	return ScreenerFunc(func(x uint64, output []byte) (string, bool) {
		if splitmix(s.seed^x)%1024 != 0 {
			return "", false
		}
		return "synthetic hit", true
	})
}

// appendTruncated appends the first bits of raw (big-endian bit order) to dst
// as ceil(bits/8) bytes, zeroing the remainder of the final byte. raw must
// hold at least that many bytes; dst may be raw[:0].
func appendTruncated(dst, raw []byte, bits uint) []byte {
	dst = append(dst, raw[:(bits+7)/8]...)
	if rem := bits % 8; rem != 0 {
		dst[len(dst)-1] &= byte(0xff << (8 - rem))
	}
	return dst
}
