package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/merkle"
)

// Verifier is the supervisor side of CBS for one participant's task. It
// holds the received commitment and audits responses against it.
type Verifier struct {
	commitment  Commitment
	treeOptions []merkle.Option
	rng         challengeRand
	// proofs is the hash state root reconstruction needs, set up once per
	// task instead of once per sample. Verify takes it out of the slot for
	// the duration of a call; a concurrent Verify finds the slot empty and
	// sets up its own, so concurrent calls stay safe.
	proofs atomic.Pointer[merkle.ProofVerifier]
}

// challengeRand is the minimal randomness surface Challenge needs.
type challengeRand interface {
	Uint64() uint64
}

// NewVerifier accepts the participant's commitment (Step 1) and prepares to
// audit it.
func NewVerifier(c Commitment, opts ...Option) (*Verifier, error) {
	if c.N < 1 {
		return nil, fmt.Errorf("%w: committed domain size %d", ErrBadDomain, c.N)
	}
	if len(c.Root) == 0 {
		return nil, fmt.Errorf("%w: empty commitment root", ErrProtocol)
	}
	cfg := buildConfig(opts)
	v := &Verifier{
		commitment:  Commitment{Root: append([]byte(nil), c.Root...), N: c.N},
		treeOptions: cfg.treeOptions,
	}
	v.proofs.Store(merkle.NewProofVerifier(cfg.treeOptions...))
	if cfg.rng != nil {
		v.rng = cfg.rng
	} else {
		rng, err := cryptoSeededRand()
		if err != nil {
			return nil, err
		}
		v.rng = rng
	}
	return v, nil
}

// Commitment returns the commitment under audit.
func (v *Verifier) Commitment() Commitment { return v.commitment }

// Challenge draws m sample indices uniformly at random with replacement from
// [0, n) — Step 2 of Section 3.1. Sampling with replacement matches the
// independence assumption of Theorem 3 exactly.
func (v *Verifier) Challenge(m int) (Challenge, error) {
	if m < 1 {
		return Challenge{}, fmt.Errorf("%w: got %d", ErrBadSampleCount, m)
	}
	indices := make([]uint64, m)
	for k := range indices {
		indices[k] = uniformIndex(v.rng, v.commitment.N)
	}
	return Challenge{Indices: indices}, nil
}

// Verify runs Step 4 for every challenged sample: first the output
// correctness check, then the root reconstruction against the commitment.
// It returns nil when the participant passes, a *CheatError at the first
// convicting sample, or an ErrProtocol-wrapped error for malformed input.
func (v *Verifier) Verify(ch Challenge, resp *Response, check CheckFunc) error {
	if resp == nil {
		return fmt.Errorf("%w: nil response", ErrProtocol)
	}
	if check == nil {
		return fmt.Errorf("%w: nil output check", ErrProtocol)
	}
	if len(ch.Indices) == 0 {
		return fmt.Errorf("%w: empty challenge", ErrProtocol)
	}
	if len(resp.Proofs) != len(ch.Indices) {
		return fmt.Errorf("%w: %d proofs for %d challenged samples",
			ErrProtocol, len(resp.Proofs), len(ch.Indices))
	}
	proofs := v.proofs.Swap(nil)
	if proofs == nil {
		proofs = merkle.NewProofVerifier(v.treeOptions...)
	}
	defer v.proofs.Store(proofs)
	for k, idx := range ch.Indices {
		if err := v.verifySample(proofs, idx, resp.Proofs[k], check); err != nil {
			return err
		}
	}
	return nil
}

// VerifyNonInteractive audits an NI-CBS response (Section 4.1, Step 4): the
// supervisor re-derives the m sample indices from the committed root via the
// shared hash chain, then verifies exactly as in the interactive scheme.
func (v *Verifier) VerifyNonInteractive(chain *hashchain.Chain, m int, resp *Response, check CheckFunc) error {
	if chain == nil {
		return fmt.Errorf("%w: nil hash chain", ErrProtocol)
	}
	if m < 1 {
		return fmt.Errorf("%w: got %d", ErrBadSampleCount, m)
	}
	indices, err := chain.SampleIndices(v.commitment.Root, m, v.commitment.N)
	if err != nil {
		return fmt.Errorf("core: re-derive samples: %w", err)
	}
	return v.Verify(Challenge{Indices: indices}, resp, check)
}

func (v *Verifier) verifySample(proofs *merkle.ProofVerifier, idx uint64, proof *merkle.Proof, check CheckFunc) error {
	if proof == nil {
		return fmt.Errorf("%w: nil proof for sample %d", ErrProtocol, idx)
	}
	if uint64(proof.Index) != idx || idx >= v.commitment.N {
		return fmt.Errorf("%w: proof is for index %d, challenged %d",
			ErrProtocol, proof.Index, idx)
	}
	if uint64(proof.N) != v.commitment.N {
		return fmt.Errorf("%w: proof domain %d, committed %d",
			ErrProtocol, proof.N, v.commitment.N)
	}
	// Step 4, case 1: is the claimed f(x) correct?
	if err := check(idx, proof.Value); err != nil {
		if errors.Is(err, ErrWrongOutput) {
			return &CheatError{Index: idx, Err: err}
		}
		return &CheatError{Index: idx, Err: fmt.Errorf("%w: %v", ErrWrongOutput, err)}
	}
	// Step 4, case 2: was that value committed before the challenge?
	switch err := proofs.Verify(v.commitment.Root, proof); {
	case err == nil:
		return nil
	case errors.Is(err, merkle.ErrRootMismatch):
		return &CheatError{Index: idx, Err: ErrCommitmentMismatch}
	default:
		return fmt.Errorf("%w: %v", ErrProtocol, err)
	}
}

// uniformIndex draws uniformly from [0, n) without modulo bias.
func uniformIndex(rng challengeRand, n uint64) uint64 {
	if n&(n-1) == 0 {
		return rng.Uint64() & (n - 1) // power of two: mask is exact
	}
	// Rejection sampling over the largest multiple of n below 2^64.
	limit := ^uint64(0) - ^uint64(0)%n
	for {
		v := rng.Uint64()
		if v < limit {
			return v % n
		}
	}
}
