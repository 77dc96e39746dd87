package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Signal models SETI@home-style processing: each input x names a chunk of
// radio telescope samples, f(x) runs a spectral analysis (an FFT power
// spectrum followed by a peak search), and the screener reports chunks whose
// peak-to-mean power ratio suggests a narrowband transmission.
//
// Real tapes are replaced by deterministic synthetic chunks: Gaussian-ish
// noise derived from (seed, x), with roughly 1 chunk in 256 carrying an
// injected sinusoid. This keeps the code path identical (generate → window →
// FFT → peak statistics) while making every evaluation reproducible.
//
// The output encodes the peak bin and the quantized peak-to-mean ratio
// (10 bytes), so q ≈ 0.
type Signal struct {
	seed     uint64
	chunkLen int
}

var _ Function = (*Signal)(nil)

// signalSNRThreshold is the peak-to-mean power ratio (scaled by 1000) above
// which a chunk is reported. Pure-noise chunks of length 64 stay well below
// it; injected tones exceed it by an order of magnitude.
const signalSNRThreshold = 12_000

// NewSignal creates a signal-search workload over chunks of chunkLen
// samples. chunkLen is rounded up to a power of two (minimum 16).
func NewSignal(seed uint64, chunkLen int) *Signal {
	n := 16
	for n < chunkLen {
		n *= 2
	}
	return &Signal{seed: seed, chunkLen: n}
}

// Name implements Function.
func (s *Signal) Name() string { return "signal" }

// ChunkLen reports the per-chunk sample count.
func (s *Signal) ChunkLen() int { return s.chunkLen }

// AppendEval implements Function: spectral peak analysis of chunk x. The
// output is bin (2 bytes BE) || ratio×1000 (8 bytes BE); the samples and
// spectrum are working sets of the evaluation and still allocated per call.
func (s *Signal) AppendEval(dst []byte, x uint64) []byte {
	samples := s.generate(x)
	spectrum := powerSpectrum(samples)

	// Peak over the positive-frequency bins, excluding DC.
	half := len(spectrum) / 2
	peakBin, peakPower, total := 1, spectrum[1], 0.0
	for bin := 1; bin < half; bin++ {
		total += spectrum[bin]
		if spectrum[bin] > peakPower {
			peakBin, peakPower = bin, spectrum[bin]
		}
	}
	mean := total / float64(half-1)
	ratio := 0.0
	if mean > 0 {
		ratio = peakPower / mean
	}

	var out [10]byte
	binary.BigEndian.PutUint16(out[:2], uint16(peakBin))
	binary.BigEndian.PutUint64(out[2:], uint64(math.Round(ratio*1000)))
	return append(dst, out[:]...)
}

// Eval implements Function.
func (s *Signal) Eval(x uint64) []byte { return s.AppendEval(nil, x) }

// AppendEvalBatch implements Function: one AppendEval call per input.
func (s *Signal) AppendEvalBatch(dst []byte, x0 uint64, ends []int) []byte {
	return appendEvalEach(s, dst, x0, ends)
}

// GuessOutput implements Function: a random bin plus a ratio drawn near the
// noise floor, the cheapest plausible fabrication.
func (s *Signal) GuessOutput(_ uint64, rng *rand.Rand) []byte {
	out := make([]byte, 10)
	binary.BigEndian.PutUint16(out[:2], uint16(1+rng.Intn(s.chunkLen/2-1)))
	binary.BigEndian.PutUint64(out[2:], uint64(500+rng.Intn(5000)))
	return out
}

// GuessProb implements Function: matching bin and quantized ratio by chance
// is negligible.
func (s *Signal) GuessProb() float64 { return 0 }

// Screener reports chunks whose peak-to-mean ratio clears the threshold.
func (s *Signal) Screener() Screener {
	return ScreenerFunc(func(x uint64, output []byte) (string, bool) {
		if len(output) != 10 {
			return "", false
		}
		ratio := binary.BigEndian.Uint64(output[2:])
		if ratio < signalSNRThreshold {
			return "", false
		}
		bin := binary.BigEndian.Uint16(output[:2])
		return fmt.Sprintf("candidate signal in chunk %d: bin=%d ratio=%d/1000", x, bin, ratio), true
	})
}

// HasTone reports whether chunk x carries an injected sinusoid; tests use it
// as ground truth for the screener.
func (s *Signal) HasTone(x uint64) bool {
	return splitmix(s.seed^splitmix(x))%256 == 0
}

// generate synthesizes chunk x: uniform noise in [-1, 1), plus an injected
// tone in ~1/256 of chunks.
func (s *Signal) generate(x uint64) []float64 {
	samples := make([]float64, s.chunkLen)
	state := splitmix(s.seed ^ splitmix(x))
	for i := range samples {
		state = splitmix(state)
		samples[i] = float64(int64(state>>11))/(1<<52) - 1.0
	}
	if s.HasTone(x) {
		bin := 1 + int(splitmix(state)%uint64(s.chunkLen/2-1))
		freq := 2 * math.Pi * float64(bin) / float64(s.chunkLen)
		for i := range samples {
			samples[i] += 4 * math.Sin(freq*float64(i))
		}
	}
	return samples
}

// powerSpectrum computes |FFT(samples)|^2 via an iterative radix-2
// Cooley-Tukey transform. len(samples) must be a power of two.
func powerSpectrum(samples []float64) []float64 {
	n := len(samples)
	re := make([]float64, n)
	im := make([]float64, n)
	// Bit-reversal permutation.
	for i, rev := 0, 0; i < n; i++ {
		if i < rev {
			samples[i], samples[rev] = samples[rev], samples[i]
		}
		mask := n >> 1
		for ; rev&mask != 0; mask >>= 1 {
			rev &^= mask
		}
		rev |= mask
	}
	copy(re, samples)

	for size := 2; size <= n; size *= 2 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				angle := step * float64(k)
				wr, wi := math.Cos(angle), math.Sin(angle)
				i, j := start+k, start+k+half
				tr := wr*re[j] - wi*im[j]
				ti := wr*im[j] + wi*re[j]
				re[j], im[j] = re[i]-tr, im[i]-ti
				re[i], im[i] = re[i]+tr, im[i]+ti
			}
		}
	}

	power := make([]float64, n)
	for i := range power {
		power[i] = re[i]*re[i] + im[i]*im[i]
	}
	return power
}
