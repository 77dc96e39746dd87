// Package cheat implements the participant behaviour models of Section 2.2
// of "Uncheatable Grid Computing" (Du et al., ICDCS 2004): honest
// participants, semi-honest cheaters who compute f only on a subset D' of
// their domain (honesty ratio r = |D'|/|D|) and fabricate the rest, and
// malicious participants who compute f faithfully but corrupt the screener
// reports. It also implements the re-rolling attack against non-interactive
// CBS described in Section 4.2.
package cheat

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"uncheatgrid/internal/workload"
)

// Errors reported by this package.
var (
	// ErrBadRatio is returned for honesty ratios outside [0, 1].
	ErrBadRatio = errors.New("cheat: honesty ratio must be in [0, 1]")
	// ErrBadProb is returned for probabilities outside [0, 1].
	ErrBadProb = errors.New("cheat: probability must be in [0, 1]")
)

// Producer yields the results a participant claims for its task. AppendClaim
// produces what enters the Merkle tree (and thus what CBS audits); Report
// filters the screener verdicts sent to the supervisor. HonestOn exposes the
// ground truth D' membership so experiments can compare detection against
// reality.
//
// Implementations are safe for concurrent use by callers passing distinct
// dst buffers.
type Producer interface {
	// Name identifies the behaviour in reports.
	Name() string
	// AppendClaim appends the value the participant commits as f(x) to dst
	// and returns the extended slice, under workload.Function.AppendEval's
	// contract: exactly the claimed bytes, dst never retained.
	AppendClaim(dst []byte, x uint64) []byte
	// AppendClaimBatch appends the claims for x0, x0+1, …, x0+k-1 for
	// k = len(ends) to dst and sets ends[i] to the offset in the returned
	// slice where x0+i's ends: the bytes of k AppendClaim calls in index
	// order, with the evaluations batched where f batches them
	// (workload.Function.AppendEvalBatch).
	AppendClaimBatch(dst []byte, x0 uint64, ends []int) []byte
	// HonestOn reports whether x ∈ D', i.e. whether the claim for x was
	// computed by actually evaluating f.
	HonestOn(x uint64) bool
	// Report post-processes the screener verdict for x before it is sent.
	Report(x uint64, s string, interesting bool) (string, bool)
}

// Honest is the fully honest participant: r = 1, faithful reports.
type Honest struct {
	f workload.Function
}

var _ Producer = (*Honest)(nil)

// NewHonest wraps f in an honest behaviour.
func NewHonest(f workload.Function) *Honest {
	return &Honest{f: f}
}

// Name implements Producer.
func (h *Honest) Name() string { return "honest" }

// AppendClaim implements Producer: always the true f(x).
func (h *Honest) AppendClaim(dst []byte, x uint64) []byte { return h.f.AppendEval(dst, x) }

// AppendClaimBatch implements Producer: the true values, in one batch.
func (h *Honest) AppendClaimBatch(dst []byte, x0 uint64, ends []int) []byte {
	return h.f.AppendEvalBatch(dst, x0, ends)
}

// HonestOn implements Producer.
func (h *Honest) HonestOn(uint64) bool { return true }

// Report implements Producer: verdicts pass through unchanged.
func (h *Honest) Report(_ uint64, s string, interesting bool) (string, bool) {
	return s, interesting
}

// SemiHonest is the paper's rational cheater: it evaluates f only on a
// pseudo-random subset D' covering a fraction r of the domain and substitutes
// the cheap guess f̌ elsewhere. Membership in D' is a deterministic function
// of (seed, x), so the set is stable across protocol phases — exactly the
// cheater the CBS security analysis models.
type SemiHonest struct {
	f     workload.Function
	ratio float64
	// threshold implements Pr[x ∈ D'] = r via a 64-bit comparison.
	threshold uint64
	seed      uint64
}

var _ Producer = (*SemiHonest)(nil)

// NewSemiHonest creates a cheater with honesty ratio r. The seed fixes both
// the D' membership and the guess stream; AppendClaim is fully deterministic, so
// the fabricated leaves stay stable across commitment and proof phases (the
// cheater "committed" to its guesses, as the paper's model requires).
func NewSemiHonest(f workload.Function, r float64, seed uint64) (*SemiHonest, error) {
	if !(r >= 0 && r <= 1) { // the negated form also rejects NaN
		return nil, fmt.Errorf("%w: got %v", ErrBadRatio, r)
	}
	return &SemiHonest{
		f:         f,
		ratio:     r,
		threshold: ratioThreshold(r),
		seed:      seed,
	}, nil
}

// Name implements Producer.
func (s *SemiHonest) Name() string { return fmt.Sprintf("semi-honest(r=%g)", s.ratio) }

// Ratio reports the honesty ratio r.
func (s *SemiHonest) Ratio() float64 { return s.ratio }

// HonestOn implements Producer.
func (s *SemiHonest) HonestOn(x uint64) bool {
	if s.ratio >= 1 {
		return true
	}
	return mix(s.seed^mix(x)) < s.threshold
}

// AppendClaim implements Producer: f(x) on D', the guess f̌(x) elsewhere.
// Guesses are drawn from a per-input deterministic stream so repeated calls
// agree.
func (s *SemiHonest) AppendClaim(dst []byte, x uint64) []byte {
	if s.HonestOn(x) {
		return s.f.AppendEval(dst, x)
	}
	return s.appendGuess(dst, x)
}

// appendGuess appends the guess f̌(x) to dst.
func (s *SemiHonest) appendGuess(dst []byte, x uint64) []byte {
	g := guessStreams.Get().(*guessStream)
	// Seed also drops bytes a previous input's rng.Read left buffered.
	g.rng.Seed(int64(mix(s.seed ^ mix(x^0x6355))))
	dst = append(dst, s.f.GuessOutput(x, g.rng)...)
	guessStreams.Put(g)
	return dst
}

// AppendClaimBatch implements Producer. It decides each input in index
// order, so D' and the guess stream are those of single claims, and
// evaluates each run of consecutive inputs in D' as one batch of f.
func (s *SemiHonest) AppendClaimBatch(dst []byte, x0 uint64, ends []int) []byte {
	for i := 0; i < len(ends); {
		j := i
		for j < len(ends) && s.HonestOn(x0+uint64(j)) {
			j++
		}
		if j > i {
			dst = s.f.AppendEvalBatch(dst, x0+uint64(i), ends[i:j])
			i = j
			continue
		}
		dst = s.appendGuess(dst, x0+uint64(i))
		ends[i] = len(dst)
		i++
	}
	return dst
}

// guessStream is the generator under one input's guess: splitmix64 behind a
// rand.Rand. A guess draws a word or two, so a stream must cost nothing to
// start — math/rand's default source fills a 607-word table per seed, ~5 kB
// and microseconds per fabricated leaf, which made cheating dearer than the
// paper's "negligible cost" f̌. Streams are pooled because rand.New itself
// allocates; a pooled stream is re-seeded per input, never shared.
type guessStream struct {
	state uint64
	rng   *rand.Rand
}

var guessStreams = sync.Pool{New: func() any {
	g := &guessStream{}
	g.rng = rand.New(g)
	return g
}}

var _ rand.Source64 = (*guessStream)(nil)

// Uint64 implements rand.Source64: mix advances its argument by the
// splitmix64 increment before scrambling, so the state trails by one step.
func (g *guessStream) Uint64() uint64 {
	out := mix(g.state)
	g.state += 0x9e3779b97f4a7c15
	return out
}

// Int63 implements rand.Source.
func (g *guessStream) Int63() int64 { return int64(g.Uint64() >> 1) }

// Seed implements rand.Source.
func (g *guessStream) Seed(seed int64) { g.state = uint64(seed) }

// Report implements Producer: the semi-honest cheater reports whatever its
// claimed values screen to — it is lazy, not disruptive.
func (s *SemiHonest) Report(_ uint64, str string, interesting bool) (string, bool) {
	return str, interesting
}

// Malicious is the disruptive participant of Section 2.2: it computes f on
// all of D (so commitment audits pass) but sabotages the screener stage,
// suppressing a fraction of true reports and fabricating noise.
type Malicious struct {
	f           workload.Function
	corruptProb float64
	seed        uint64
}

var _ Producer = (*Malicious)(nil)

// NewMalicious creates a saboteur that corrupts each report independently
// with probability corruptProb.
func NewMalicious(f workload.Function, corruptProb float64, seed uint64) (*Malicious, error) {
	if !(corruptProb >= 0 && corruptProb <= 1) { // also rejects NaN
		return nil, fmt.Errorf("%w: got %v", ErrBadProb, corruptProb)
	}
	return &Malicious{f: f, corruptProb: corruptProb, seed: seed}, nil
}

// Name implements Producer.
func (m *Malicious) Name() string { return fmt.Sprintf("malicious(p=%g)", m.corruptProb) }

// AppendClaim implements Producer: the true f(x); the attack is downstream.
func (m *Malicious) AppendClaim(dst []byte, x uint64) []byte { return m.f.AppendEval(dst, x) }

// AppendClaimBatch implements Producer: the true values, in one batch.
func (m *Malicious) AppendClaimBatch(dst []byte, x0 uint64, ends []int) []byte {
	return m.f.AppendEvalBatch(dst, x0, ends)
}

// HonestOn implements Producer: computation-wise the saboteur is honest.
func (m *Malicious) HonestOn(uint64) bool { return true }

// Report implements Producer: with probability corruptProb the verdict is
// flipped — interesting results are suppressed and boring ones reported as
// S(x, z) for a random z, the paper's example of malicious cheating.
func (m *Malicious) Report(x uint64, s string, interesting bool) (string, bool) {
	if !m.corrupts(x) {
		return s, interesting
	}
	if interesting {
		return "", false // suppress a real discovery
	}
	return fmt.Sprintf("fabricated result for input %d", x), true
}

func (m *Malicious) corrupts(x uint64) bool {
	return mix(m.seed^mix(x^0xbad)) < ratioThreshold(m.corruptProb)
}

// ratioThreshold maps a probability in [0,1] to a uint64 comparison bound.
func ratioThreshold(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return ^uint64(0)
	default:
		return uint64(p * float64(1<<63) * 2)
	}
}

// mix is SplitMix64; it decorrelates membership decisions from input values.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
