package core

import (
	"fmt"

	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/merkle"
)

// proofSource abstracts the full and partial Merkle trees behind the prover.
type proofSource interface {
	ProveMulti(indices []uint64) (merkle.MultiProof, error)
}

// Prover is the participant side of CBS. It owns the committed Merkle tree
// and answers sample challenges. Construct one per assigned task; safe for
// concurrent Respond calls.
type Prover struct {
	n      int
	source proofSource
	// root is Φ(R), taken from the tree once.
	root    []byte
	partial *merkle.PartialTree // nil in full-tree mode
}

// NewProver builds the participant's Merkle tree over n claimed results
// (Step 1 of Section 3.1). claim(i) must return the value the participant
// stands behind for domain index i; for an honest participant that is
// f(x_i). The tree copies each value as it is produced and keeps no
// reference to it, so claim may reuse one buffer between calls
// (workload.Function.AppendEval into buf[:0]) — unless the tree options ask
// for a parallel build, which calls claim from several goroutines. With
// WithSubtreeHeight(ℓ > 0), claim must be deterministic since audited
// subtrees are recomputed on demand.
func NewProver(n int, claim func(i uint64) []byte, opts ...Option) (*Prover, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadDomain, n)
	}
	if claim == nil {
		return nil, fmt.Errorf("%w: nil claim function", ErrProtocol)
	}
	cfg := buildConfig(opts)

	p := &Prover{n: n}
	if cfg.subtreeHeight > 0 {
		partial, err := merkle.NewPartial(n, cfg.subtreeHeight,
			func(i int) []byte { return claim(uint64(i)) }, cfg.treeOptions...)
		if err != nil {
			return nil, fmt.Errorf("core: build partial tree: %w", err)
		}
		p.source, p.partial, p.root = partial, partial, partial.Root()
		return p, nil
	}
	tree, err := merkle.BuildFunc(n, func(i int) []byte { return claim(uint64(i)) }, cfg.treeOptions...)
	if err != nil {
		return nil, fmt.Errorf("core: build tree: %w", err)
	}
	p.source, p.root = tree, tree.Root()
	return p, nil
}

// N reports the domain size n.
func (p *Prover) N() int { return p.n }

// Commitment returns the message of Step 1: the root Φ(R) and the domain
// size. Every call returns the same Root slice; it must not be modified.
func (p *Prover) Commitment() Commitment {
	return Commitment{Root: p.root, N: uint64(p.n)}
}

// Respond produces the participant's proof of honesty (Step 3) for the
// challenged sample indices, which may repeat: one multiproof carrying the
// claimed f(x) of every distinct index and each sibling Φ value on the
// leaf-to-root paths that the supervisor cannot compute from the samples
// themselves.
func (p *Prover) Respond(indices []uint64) (*Response, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("%w: empty challenge", ErrProtocol)
	}
	for _, idx := range indices {
		if idx >= uint64(p.n) {
			return nil, fmt.Errorf("%w: challenged index %d outside domain [0,%d)",
				ErrProtocol, idx, p.n)
		}
	}
	proof, err := p.source.ProveMulti(indices)
	if err != nil {
		return nil, fmt.Errorf("core: prove samples: %w", err)
	}
	return &Response{Proof: proof}, nil
}

// RespondNonInteractive runs Steps 2-3 of the NI-CBS scheme (Section 4.1):
// the participant derives its own m sample indices from the commitment via
// the hash chain g (Eq. 4) and returns their multiproof. No supervisor round trip
// is needed; the verifier re-derives the same indices from the root.
func (p *Prover) RespondNonInteractive(chain *hashchain.Chain, m int) (*Response, error) {
	if chain == nil {
		return nil, fmt.Errorf("%w: nil hash chain", ErrProtocol)
	}
	if m < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadSampleCount, m)
	}
	indices, err := chain.SampleIndices(p.root, m, uint64(p.n))
	if err != nil {
		return nil, fmt.Errorf("core: derive samples: %w", err)
	}
	return p.Respond(indices)
}

// RebuiltLeaves reports how many leaf recomputations the Section 3.3 mode
// has performed to serve proofs; 0 in full-tree mode.
func (p *Prover) RebuiltLeaves() int64 {
	if p.partial == nil {
		return 0
	}
	return p.partial.RebuiltLeaves()
}

// StoredNodes reports the prover's tree-storage footprint in node slots
// (S of Section 3.3). Full-tree mode stores 2·nextPow2(n) slots.
func (p *Prover) StoredNodes() int {
	if p.partial != nil {
		return p.partial.StoredNodes()
	}
	capacity := 1
	for capacity < p.n {
		capacity *= 2
	}
	return 2 * capacity
}
