// Package core implements the Commitment-Based Sampling (CBS) scheme of
// "Uncheatable Grid Computing" (Du, Jia, Mangal, Murugesan; ICDCS 2004) —
// the paper's primary contribution — in both its interactive (Section 3.1)
// and non-interactive (Section 4.1) forms.
//
// The protocol has four steps:
//
//  1. Building the Merkle tree: the participant commits to all n results by
//     sending Φ(R), the tree root (Prover.Commitment).
//  2. Sample selection: the supervisor draws m uniform indices
//     (Verifier.Challenge); in the non-interactive variant both sides derive
//     them from the commitment via a hash chain (Eq. 4).
//  3. Proof of honesty: the participant returns f(x) for every sample and
//     the sibling values on their paths to the root (Prover.Respond) — as
//     one Merkle multiproof, which sends a sibling the paths share once and
//     leaves out those the supervisor can compute from the samples
//     themselves: at most the paper's O(m log n), typically 40-60% of it.
//  4. Verification: the supervisor checks each claimed output, once per
//     challenged sample, and reconstructs the root from the multiproof
//     (Verifier.Verify); any mismatch convicts the participant
//     (Theorems 1-2).
//
// The storage-bounded prover of Section 3.3 is selected with
// WithSubtreeHeight: it keeps only the top H-ℓ tree levels and recomputes
// one 2^ℓ-leaf subtree per audited sample.
package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"

	"uncheatgrid/internal/merkle"
)

// Errors reported by this package. CheatError wraps ErrWrongOutput and
// ErrCommitmentMismatch so callers can both identify the failing sample and
// classify the failure.
var (
	// ErrBadDomain is returned for an empty or oversized domain.
	ErrBadDomain = errors.New("core: domain size must be >= 1")
	// ErrBadSampleCount is returned for a non-positive sample count.
	ErrBadSampleCount = errors.New("core: sample count must be >= 1")
	// ErrProtocol is returned for structurally invalid or mismatched
	// messages — a protocol violation rather than a detected cheat.
	ErrProtocol = errors.New("core: protocol violation")
	// ErrWrongOutput indicates the claimed f(x) failed the supervisor's
	// correctness check (Step 4, case 1).
	ErrWrongOutput = errors.New("core: claimed output is incorrect")
	// ErrCommitmentMismatch indicates the proof does not reconstruct the
	// committed root (Step 4, case 2): the participant did not know f(x)
	// when it built the tree.
	ErrCommitmentMismatch = errors.New("core: proof inconsistent with commitment")
)

// CheatError reports a failed verification: which sample convicted the
// participant and why. Use errors.As to extract it and errors.Is to test for
// ErrWrongOutput or ErrCommitmentMismatch.
type CheatError struct {
	// Index is the domain index of the convicting sample: the first
	// challenged sample whose claimed output is wrong, or — for
	// ErrCommitmentMismatch, which convicts the response as a whole — the
	// first challenged index.
	Index uint64
	// Err is ErrWrongOutput or ErrCommitmentMismatch (possibly wrapped).
	Err error
}

// Error implements error.
func (e *CheatError) Error() string {
	return fmt.Sprintf("cheating detected at sample %d: %v", e.Index, e.Err)
}

// Unwrap exposes the failure class.
func (e *CheatError) Unwrap() error { return e.Err }

// CheckFunc is the supervisor's correctness check for a claimed output
// (Step 4, case 1). It returns nil when output is the true f(x). The paper
// notes this need not recompute f — cheap verifiers (factoring) qualify.
type CheckFunc func(index uint64, output []byte) error

// RecomputeCheck builds a CheckFunc that recomputes f and compares — the
// generic, always-available strategy. The recomputed value is compared and
// dropped, so eval may reuse one buffer between calls.
func RecomputeCheck(eval func(index uint64) []byte) CheckFunc {
	return func(index uint64, output []byte) error {
		want := eval(index)
		if len(want) != len(output) {
			return fmt.Errorf("%w: length %d, want %d", ErrWrongOutput, len(output), len(want))
		}
		for i := range want {
			if want[i] != output[i] {
				return ErrWrongOutput
			}
		}
		return nil
	}
}

// AcceptAnyOutput is a CheckFunc that skips the output-correctness step,
// relying on the commitment check alone. Experiments use it to isolate the
// commitment mechanism; real supervisors should not.
func AcceptAnyOutput(uint64, []byte) error { return nil }

// config collects construction options shared by Prover and Verifier.
type config struct {
	subtreeHeight int
	treeOptions   []merkle.Option
	rng           *mrand.Rand
}

// Option customizes a Prover or Verifier. Options map a config to a config
// by value, so the one a constructor builds never escapes to the heap.
type Option interface {
	apply(config) config
}

type subtreeHeightOption int

func (o subtreeHeightOption) apply(c config) config {
	c.subtreeHeight = int(o)
	return c
}

// WithSubtreeHeight selects the Section 3.3 storage-bounded prover: only the
// top H-ℓ levels of the tree are stored, and each audited sample rebuilds a
// 2^ℓ-leaf subtree. ℓ = 0 (the default) stores the full tree. The claim
// function must be deterministic in this mode. Verifiers ignore this option.
func WithSubtreeHeight(ell int) Option { return subtreeHeightOption(ell) }

type treeOptionsOption []merkle.Option

func (o treeOptionsOption) apply(c config) config {
	c.treeOptions = append(c.treeOptions, []merkle.Option(o)...)
	return c
}

// WithTreeOptions forwards options (e.g. the hash function) to the Merkle
// layer. Prover and Verifier must agree on them.
func WithTreeOptions(opts ...merkle.Option) Option { return treeOptionsOption(opts) }

type rngOption struct{ rng *mrand.Rand }

func (o rngOption) apply(c config) config {
	c.rng = o.rng
	return c
}

// WithRand fixes the verifier's challenge randomness; experiments use it for
// reproducibility. The default draws a fresh seed from crypto/rand.
func WithRand(rng *mrand.Rand) Option { return rngOption{rng: rng} }

func buildConfig(opts []Option) config {
	var c config
	for _, opt := range opts {
		c = opt.apply(c)
	}
	return c
}

// cryptoSeededRand returns a math/rand generator seeded from the OS CSPRNG;
// used when the caller does not pin randomness.
func cryptoSeededRand() (*mrand.Rand, error) {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("core: seed challenge rng: %w", err)
	}
	return mrand.New(mrand.NewSource(int64(binary.BigEndian.Uint64(seed[:])))), nil
}
