package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/merkle"
)

// Verifier is the supervisor side of CBS for one participant's task. It
// holds the received commitment and audits responses against it; Reset moves
// it to the next task.
type Verifier struct {
	commitment  Commitment
	treeOptions []merkle.Option
	rng         challengeRand
	// proofs is the hash state root reconstruction needs, set up with the
	// task. Verify takes it out of the slot for the duration of a call; a
	// concurrent Verify finds the slot empty and sets up its own, so
	// concurrent calls stay safe.
	proofs atomic.Pointer[merkle.ProofVerifier]
}

// challengeRand is the minimal randomness surface Challenge needs.
type challengeRand interface {
	Uint64() uint64
}

// NewVerifier accepts the participant's commitment (Step 1) and prepares to
// audit it.
func NewVerifier(c Commitment, opts ...Option) (*Verifier, error) {
	v := new(Verifier)
	if err := v.Reset(c, opts...); err != nil {
		return nil, err
	}
	return v, nil
}

// Reset accepts a new task's commitment exactly as NewVerifier(c, opts...)
// does for a fresh verifier — it is the one set-up routine — keeping what v
// already holds: the root is copied into the same buffer and the proof
// verifier's hash state and scratch stay, so a verifier that has audited one
// task is set up for the next without allocating. The slice Commitment
// returned for the previous task is overwritten. Reset must not run beside a
// Verify; after an error v must be Reset again before it is used.
func (v *Verifier) Reset(c Commitment, opts ...Option) error {
	if c.N < 1 {
		return fmt.Errorf("%w: committed domain size %d", ErrBadDomain, c.N)
	}
	if len(c.Root) == 0 {
		return fmt.Errorf("%w: empty commitment root", ErrProtocol)
	}
	cfg := buildConfig(opts)
	v.commitment = Commitment{Root: append(v.commitment.Root[:0], c.Root...), N: c.N}
	v.treeOptions = cfg.treeOptions
	proofs := v.proofs.Load()
	if proofs == nil {
		proofs = new(merkle.ProofVerifier)
		v.proofs.Store(proofs)
	}
	proofs.Reset(cfg.treeOptions...)
	v.rng = cfg.rng
	if cfg.rng == nil {
		rng, err := cryptoSeededRand()
		if err != nil {
			return err
		}
		v.rng = rng
	}
	return nil
}

// Commitment returns the commitment under audit.
func (v *Verifier) Commitment() Commitment { return v.commitment }

// Challenge draws m sample indices uniformly at random with replacement from
// [0, n) — Step 2 of Section 3.1. Sampling with replacement matches the
// independence assumption of Theorem 3 exactly.
func (v *Verifier) Challenge(m int) (Challenge, error) {
	indices, err := v.AppendChallenge(nil, m)
	return Challenge{Indices: indices}, err
}

// AppendChallenge is Challenge drawn into the caller's storage: the m
// indices are appended to dst.
func (v *Verifier) AppendChallenge(dst []uint64, m int) ([]uint64, error) {
	if m < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadSampleCount, m)
	}
	dst = slices.Grow(dst, m)
	for k := 0; k < m; k++ {
		dst = append(dst, uniformIndex(v.rng, v.commitment.N))
	}
	return dst, nil
}

// Verify runs Step 4. The response must prove exactly the challenged
// indices under the committed domain size; anything else, and any malformed
// input, is an ErrProtocol-wrapped error. The output check then runs once per
// challenged sample in challenge order, repeats included — Theorem 3 counts
// m independent draws with replacement, so a participant is convicted at the
// first sample, of m, that exposes it, and a verified task costs the
// supervisor exactly m checks — and returns a *CheatError with ErrWrongOutput
// at the first sample that fails. Last, the root is reconstructed from all
// samples at once: a mismatch means some claimed value was not the committed
// one, and since one reconstruction cannot say which, the *CheatError with
// ErrCommitmentMismatch names the first challenged index and stands for the
// response as a whole. Verify returns nil when the participant passes.
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
	proof := &resp.Proof
	if uint64(proof.N) != v.commitment.N {
		return fmt.Errorf("%w: proof domain %d, committed %d", ErrProtocol, proof.N, v.commitment.N)
	}
	// Every challenged index must be proven and every proven index
	// challenged: covered marks the proof's entries the challenge names.
	var stack [1]uint64
	covered := stack[:]
	if len(proof.Indices) > 64 {
		covered = make([]uint64, (len(proof.Indices)+63)/64)
	}
	distinct := 0
	for _, idx := range ch.Indices {
		at, ok := slices.BinarySearch(proof.Indices, idx)
		if !ok {
			return fmt.Errorf("%w: challenged index %d is not in the response", ErrProtocol, idx)
		}
		if covered[at/64]&(1<<(at%64)) == 0 {
			covered[at/64] |= 1 << (at % 64)
			distinct++
		}
	}
	if distinct != len(proof.Indices) {
		return fmt.Errorf("%w: response proves %d indices, %d challenged",
			ErrProtocol, len(proof.Indices), distinct)
	}
	// Step 4, case 1: is each claimed f(x) correct?
	for _, idx := range ch.Indices {
		value, ok := proof.Value(idx)
		if !ok {
			return fmt.Errorf("%w: no value for challenged index %d", ErrProtocol, idx)
		}
		if err := check(idx, value); err != nil {
			if errors.Is(err, ErrWrongOutput) {
				return &CheatError{Index: idx, Err: err}
			}
			return &CheatError{Index: idx, Err: fmt.Errorf("%w: %v", ErrWrongOutput, err)}
		}
	}
	// Step 4, case 2: were those values committed before the challenge?
	proofs := v.proofs.Swap(nil)
	if proofs == nil {
		proofs = merkle.NewProofVerifier(v.treeOptions...)
	}
	defer v.proofs.Store(proofs)
	switch err := proofs.VerifyMulti(v.commitment.Root, proof); {
	case err == nil:
		return nil
	case errors.Is(err, merkle.ErrRootMismatch):
		return &CheatError{Index: ch.Indices[0], Err: ErrCommitmentMismatch}
	default:
		return fmt.Errorf("%w: %v", ErrProtocol, err)
	}
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
