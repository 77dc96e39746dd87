package core

import (
	"fmt"

	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/merkle"
)

// Prover is the participant side of CBS. It owns the committed Merkle tree
// and answers sample challenges: one per assigned task, or one per task in
// flight that Reset moves from each task to the next. Safe for concurrent
// Respond calls, not for a Reset beside them.
type Prover struct {
	n int
	// tree is the full tree, kept across Resets so each rebuilds into the
	// last one's storage; partial replaces it as the proof source in the
	// storage-bounded mode and is nil otherwise.
	tree    *merkle.Tree
	partial *merkle.PartialTree
	// root is Φ(R), taken from the tree once per task into one buffer.
	root []byte
}

// NewProver builds the participant's Merkle tree over n claimed results
// (Step 1 of Section 3.1). claim(i) must return the value the participant
// stands behind for domain index i; for an honest participant that is
// f(x_i). It is Reset with merkle.PerLeaf's run over claim: the tree copies
// each value as it is produced and keeps no reference to it, so claim may
// reuse one buffer between calls (workload.Function.AppendEval into
// buf[:0]) — unless the tree options ask for a parallel build, which calls
// claim from several goroutines. With WithSubtreeHeight(ℓ > 0), claim must
// be deterministic since audited subtrees are recomputed on demand.
func NewProver(n int, claim func(i uint64) []byte, opts ...Option) (*Prover, error) {
	if claim == nil {
		return nil, fmt.Errorf("%w: nil claim function", ErrProtocol)
	}
	p := new(Prover)
	run := merkle.PerLeaf(func(i int) []byte { return claim(uint64(i)) })
	if err := p.Reset(n, run, opts...); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset commits p to a new task — the one build routine, NewProver being
// Reset of a fresh prover — into what p already holds: the full tree is
// rebuilt in place (merkle.Tree.Rebuild) and the root lands in the same
// buffer, so a prover that has served a task this size commits to the next
// without allocating. The storage-bounded tree is built anew each time.
//
// run appends the claimed values of domain indices lo, …, lo+len(ends)-1
// straight into the tree's leaf storage (merkle.LeafRun, the shape of
// cheat.Producer.AppendClaimBatch). The commitment pass asks for every index
// once, in runs in index order — concurrently, shard by shard, when the tree
// options ask for a parallel build — and a storage-bounded tree asks again,
// in runs, for each audited subtree, so run must then be deterministic.
//
// The previous task's commitment root and every response drawn from its
// tree are overwritten; the caller must be done with them. After an error p
// must be Reset again before it is used.
func (p *Prover) Reset(n int, run merkle.LeafRun, opts ...Option) error {
	if n < 1 {
		return fmt.Errorf("%w: got %d", ErrBadDomain, n)
	}
	if run == nil {
		return fmt.Errorf("%w: nil claim run", ErrProtocol)
	}
	cfg := buildConfig(opts)
	p.n, p.partial = n, nil
	if cfg.subtreeHeight > 0 {
		partial, err := merkle.NewPartialRuns(n, cfg.subtreeHeight, run, cfg.treeOptions...)
		if err != nil {
			return fmt.Errorf("core: build partial tree: %w", err)
		}
		p.partial, p.root = partial, append(p.root[:0], partial.Root()...)
		return nil
	}
	if p.tree == nil {
		p.tree = new(merkle.Tree)
	}
	if err := p.tree.Rebuild(n, run, cfg.treeOptions...); err != nil {
		return fmt.Errorf("core: build tree: %w", err)
	}
	p.root = p.tree.AppendRoot(p.root[:0])
	return nil
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
	resp := new(Response)
	if err := p.RespondInto(resp, new(merkle.ProofScratch), indices); err != nil {
		return nil, err
	}
	return resp, nil
}

// RespondInto is Respond into a response and a proof scratch the caller
// owns: the full tree builds the multiproof in scratch (the storage-bounded
// one allocates its own), so a scratch that has served a challenge this size
// answers the next without allocating. resp aliases scratch and the tree
// until either is reused.
func (p *Prover) RespondInto(resp *Response, scratch *merkle.ProofScratch, indices []uint64) error {
	if len(indices) == 0 {
		return fmt.Errorf("%w: empty challenge", ErrProtocol)
	}
	for _, idx := range indices {
		if idx >= uint64(p.n) {
			return fmt.Errorf("%w: challenged index %d outside domain [0,%d)",
				ErrProtocol, idx, p.n)
		}
	}
	var err error
	if p.partial != nil {
		resp.Proof, err = p.partial.ProveMulti(indices)
	} else {
		resp.Proof, err = p.tree.ProveMultiInto(scratch, indices)
	}
	if err != nil {
		return fmt.Errorf("core: prove samples: %w", err)
	}
	return nil
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
