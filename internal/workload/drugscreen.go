package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"uncheatgrid/internal/shortsha"
)

// DrugScreen models the IBM smallpox-research grid the paper cites: scoring
// hundreds of thousands of candidate molecules against a protein target and
// reporting the strong binders. The real computation is molecular docking;
// here the docking score is a deterministic synthetic function of the
// molecule id with a comparable shape — an expensive scalar score where only
// the tail of the distribution is interesting.
//
// f(x) is a 64-bit fixed-point score computed from several rounds of hashing
// (standing in for the docking search's iterations); the screener reports
// molecules whose score exceeds a threshold chosen so roughly 1 in 2^14
// candidates qualify. The output space is 64 bits, so q ≈ 0.
type DrugScreen struct {
	seed uint64
}

var _ Function = (*DrugScreen)(nil)

// scoreRounds controls the synthetic docking cost. Several hash rounds make
// Eval measurably more expensive than screening, as §2.1 assumes.
const scoreRounds = 4

// drugScreenThreshold selects the top ~2^-14 slice of the uniform score
// distribution.
const drugScreenThreshold = ^uint64(0) - (^uint64(0) >> 14)

// NewDrugScreen creates a molecule-screening workload. The seed selects the
// synthetic protein target.
func NewDrugScreen(seed uint64) *DrugScreen {
	return &DrugScreen{seed: seed}
}

// Name implements Function.
func (d *DrugScreen) Name() string { return "drugscreen" }

// AppendEval implements Function: the synthetic docking score of molecule x.
func (d *DrugScreen) AppendEval(dst []byte, x uint64) []byte {
	in := seededInput(d.seed, x)
	state := shortsha.Chain(in[:], scoreRounds)
	return append(dst, state[:8]...)
}

// AppendEvalBatch implements Function: the scores' chains in shortsha.Batch
// runs.
func (d *DrugScreen) AppendEvalBatch(dst []byte, x0 uint64, ends []int) []byte {
	return appendChainBatch(dst, x0, ends, d.seed, scoreRounds, 64)
}

// Eval implements Function.
func (d *DrugScreen) Eval(x uint64) []byte { return d.AppendEval(nil, x) }

// GuessOutput implements Function: a uniform random 64-bit score.
func (d *DrugScreen) GuessOutput(_ uint64, rng *rand.Rand) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, rng.Uint64())
	return out
}

// GuessProb implements Function: 2^-64 is negligible.
func (d *DrugScreen) GuessProb() float64 { return 0 }

// Screener reports molecules whose score clears the binding threshold.
func (d *DrugScreen) Screener() Screener {
	return ScreenerFunc(func(x uint64, output []byte) (string, bool) {
		if len(output) != 8 {
			return "", false
		}
		score := binary.BigEndian.Uint64(output)
		if score < drugScreenThreshold {
			return "", false
		}
		return fmt.Sprintf("molecule %d binds: score=%d", x, score), true
	})
}
