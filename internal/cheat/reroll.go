package cheat

import (
	"errors"
	"fmt"
	"math/rand"

	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/merkle"
	"uncheatgrid/internal/workload"
)

// ErrAttackBudget is returned when the re-rolling attack exhausts its
// attempt budget without landing every derived sample inside D'.
var ErrAttackBudget = errors.New("cheat: re-roll attack exhausted its attempt budget")

// RerollConfig parameterizes the Section 4.2 attack on non-interactive CBS.
type RerollConfig struct {
	// F is the workload whose guesses fill D − D'.
	F workload.Function
	// N is the domain size |D| (inputs 0..N-1).
	N int
	// Ratio is the honesty ratio r: the first r·N evaluations are honest.
	Ratio float64
	// M is the sample count the verifier will derive.
	M int
	// Chain is the sample-derivation function g (shared with the verifier).
	Chain *hashchain.Chain
	// MaxAttempts bounds the attack; 0 means 4 · r^-M (four times the
	// expected number of attempts).
	MaxAttempts int
	// Seed drives both D' membership and the per-attempt guess streams.
	Seed uint64
	// TreeOptions are forwarded to the Merkle builds.
	TreeOptions []merkle.Option
}

// RerollResult reports the outcome of a re-rolling attack.
type RerollResult struct {
	// Attempts is the number of trees built (1 per re-roll).
	Attempts int
	// Root is the commitment of the successful attempt.
	Root []byte
	// Claims holds the leaf values of the successful tree; experiments use
	// them to complete the forged protocol run.
	Claims [][]byte
	// ChainEvaluations counts applications of g across all attempts — the
	// quantity Eq. 5 prices.
	ChainEvaluations int
	// HonestEvaluations counts evaluations of f spent on D' (paid once).
	HonestEvaluations int
}

// Reroll mounts the Section 4.2 attack: compute f honestly only on D', fill
// the remaining leaves with fresh guesses, rebuild the Merkle tree, derive
// the NI-CBS samples from its root, and repeat until every derived sample
// falls inside D'. The returned result carries the forged commitment, which
// will pass NI-CBS verification despite r < 1.
func Reroll(cfg RerollConfig) (*RerollResult, error) {
	if cfg.F == nil || cfg.Chain == nil {
		return nil, errors.New("cheat: RerollConfig needs F and Chain")
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("cheat: domain size must be positive, got %d", cfg.N)
	}
	if cfg.Ratio < 0 || cfg.Ratio > 1 {
		return nil, fmt.Errorf("%w: got %v", ErrBadRatio, cfg.Ratio)
	}
	if cfg.M < 1 {
		return nil, fmt.Errorf("cheat: sample count must be >= 1, got %d", cfg.M)
	}

	honest := int(cfg.Ratio * float64(cfg.N))
	maxAttempts := cfg.MaxAttempts
	if maxAttempts == 0 {
		expected := 1.0
		for i := 0; i < cfg.M; i++ {
			expected /= cfg.Ratio
		}
		maxAttempts = int(4 * expected)
		if maxAttempts < 16 {
			maxAttempts = 16
		}
	}

	result := &RerollResult{}
	// One slab holds the claimed leaves back to back, leaf i at
	// slab[offs[i]:offs[i+1]]. D' is the prefix [0, honest): the attacker
	// computes those once, and every re-roll overwrites the tail after them.
	var slab []byte
	offs := make([]int, cfg.N+1)
	for i := 0; i < honest; i++ {
		slab = cfg.F.AppendEval(slab, uint64(i))
		offs[i+1] = len(slab)
		result.HonestEvaluations++
	}
	leaf := func(i int) []byte { return slab[offs[i]:offs[i+1]:offs[i+1]] }
	rng := rand.New(rand.NewSource(int64(cfg.Seed) ^ 0x7e7011))

	for attempt := 1; attempt <= maxAttempts; attempt++ {
		// Re-roll the fabricated leaves (step 2-3 of the paper's strategy).
		slab = slab[:offs[honest]]
		for i := honest; i < cfg.N; i++ {
			slab = append(slab, cfg.F.GuessOutput(uint64(i), rng)...)
			offs[i+1] = len(slab)
		}
		tree, err := merkle.BuildFunc(cfg.N, leaf, cfg.TreeOptions...)
		if err != nil {
			return nil, fmt.Errorf("cheat: build attempt %d: %w", attempt, err)
		}
		root := tree.Root()
		indices, err := cfg.Chain.SampleIndices(root, cfg.M, uint64(cfg.N))
		if err != nil {
			return nil, fmt.Errorf("cheat: derive samples: %w", err)
		}
		result.Attempts = attempt
		result.ChainEvaluations += cfg.M

		if allBelow(indices, uint64(honest)) {
			result.Root = root
			result.Claims = make([][]byte, cfg.N)
			for i := range result.Claims {
				result.Claims[i] = leaf(i)
			}
			return result, nil
		}
	}
	return result, fmt.Errorf("%w: %d attempts", ErrAttackBudget, result.Attempts)
}

func allBelow(indices []uint64, bound uint64) bool {
	for _, idx := range indices {
		if idx >= bound {
			return false
		}
	}
	return true
}
