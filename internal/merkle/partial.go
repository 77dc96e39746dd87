package merkle

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"uncheatgrid/internal/shortsha"
)

// ErrBadSubtreeHeight is returned when the requested subtree height ℓ is
// negative or exceeds the tree height H.
var ErrBadSubtreeHeight = errors.New("merkle: subtree height out of range")

// PartialTree implements the storage-usage improvement of Section 3.3 of the
// paper: instead of storing the whole Merkle tree, it stores only the levels
// from the root down to level H-ℓ, and rebuilds the missing bottom-ℓ-level
// subtree (recomputing f on its 2^ℓ leaves) whenever a proof is requested.
//
// Storage is S = 2^(H-ℓ+1) node slots; each proof costs 2^ℓ leaf
// recomputations, giving the paper's relative computation overhead
// rco = m·2^ℓ/|D| = 2m/S for m samples.
type PartialTree struct {
	n         int
	cap       int
	ell       int // ℓ: height of the discarded subtrees
	blockSize int // 2^ℓ leaves per rebuilt subtree
	// top is a heap-layout tree over the 2^(H-ℓ) subtree roots; top[1] is
	// the overall root.
	top [][]byte
	run LeafRun
	hs  hashers

	// rebuiltLeaves counts leaf recomputations performed to serve proofs;
	// the experiments use it to measure rco.
	rebuiltLeaves atomic.Int64

	mu sync.Mutex // serializes the scratch state below
	// scratch is a reusable buffer for subtree rebuilds (2*blockSize slots):
	// its internal-node digests live in scratchArena rows, run appends the
	// leaf values into leafSlab and their ends into ends, and nh is the
	// reusable hash state, so a rebuild allocates nothing.
	scratch      [][]byte
	scratchArena []byte
	leafSlab     []byte
	ends         [shortsha.Lanes]int
	nh           *nodeHasher
}

// NewPartial builds a partial tree over n leaves whose values are produced
// by leafAt: NewPartialRuns with PerLeaf(leafAt). leafAt must be
// deterministic: construction calls it exactly once per index in [0, n), in
// order — callers may hang once-per-input side effects on that pass — and
// ProveMulti calls it again for every leaf of each subtree it rebuilds. Each
// value is copied as it is produced and not retained, so leafAt may reuse
// its buffer between calls. ℓ = 0 stores the full tree; ℓ = H stores only
// the root.
func NewPartial(n, ell int, leafAt func(i int) []byte, opts ...Option) (*PartialTree, error) {
	if leafAt == nil {
		return nil, fmt.Errorf("%w: nil leafAt", ErrNilLeaf)
	}
	return NewPartialRuns(n, ell, PerLeaf(leafAt), opts...)
}

// NewPartialRuns builds a partial tree over n leaves whose values run
// produces, appending them into the tree's rebuild slab. run must be
// deterministic: construction asks for every index in [0, n) exactly once,
// in runs of at most shortsha.Lanes leaves in index order — callers may hang
// once-per-input side effects on that pass — and ProveMulti asks again, in
// the same runs, for the real leaves of each subtree it rebuilds.
func NewPartialRuns(n, ell int, run LeafRun, opts ...Option) (*PartialTree, error) {
	if n <= 0 {
		return nil, ErrEmptyTree
	}
	if run == nil {
		return nil, fmt.Errorf("%w: nil leaf run", ErrNilLeaf)
	}
	capacity := nextPow2(n)
	height := log2(capacity)
	if ell < 0 || ell > height {
		return nil, fmt.Errorf("%w: ℓ=%d, height=%d", ErrBadSubtreeHeight, ell, height)
	}
	hs := newHashers(buildOptions(opts))
	if hs.fixedLen == 0 {
		return nil, ErrHasherSize
	}
	blockSize := 1 << ell
	numBlocks := capacity / blockSize

	p := &PartialTree{
		n:            n,
		cap:          capacity,
		ell:          ell,
		blockSize:    blockSize,
		top:          make([][]byte, 2*numBlocks),
		run:          run,
		hs:           hs,
		scratch:      make([][]byte, 2*blockSize),
		scratchArena: newNodeArena(hs, blockSize),
		nh:           hs.node(),
	}
	for b := 0; b < numBlocks; b++ {
		sub, err := p.fillSubtree(b, false)
		if err != nil {
			return nil, err
		}
		p.top[numBlocks+b] = cloneBytes(sub[1])
	}
	for i := numBlocks - 1; i >= 1; i-- {
		p.top[i] = p.nh.combine(p.top[2*i], p.top[2*i+1])
	}
	return p, nil
}

// N reports the number of real leaves.
func (p *PartialTree) N() int { return p.n }

// Height reports the full tree height H (edges from leaf to root).
func (p *PartialTree) Height() int { return log2(p.cap) }

// SubtreeHeight reports ℓ, the height of the discarded subtrees.
func (p *PartialTree) SubtreeHeight() int { return p.ell }

// StoredNodes reports S, the number of node slots kept in memory. It equals
// the paper's S = 2^(H-ℓ+1).
func (p *PartialTree) StoredNodes() int { return len(p.top) }

// RebuiltLeaves reports how many leaf values have been recomputed so far to
// serve proofs. It is safe for concurrent use.
func (p *PartialTree) RebuiltLeaves() int64 { return p.rebuiltLeaves.Load() }

// ResetCounters zeroes the rebuild accounting.
func (p *PartialTree) ResetCounters() { p.rebuiltLeaves.Store(0) }

// Root returns the commitment Φ(R).
func (p *PartialTree) Root() []byte {
	return cloneBytes(p.top[1])
}

// fillSubtree populates the scratch buffer with the heap-layout subtree of
// block b and returns it; the next rebuild overwrites it. Leaves beyond n
// take the pad digest, and run appends the real ones into the reusable
// slab, shortsha.Lanes at a time. A slot set before the slab had to grow
// keeps pointing at the outgrown array, whose bytes append leaves as they
// were. When counted is true the leaf evaluations are added to the rebuild
// accounting. Callers must hold p.mu (or be the constructor, which runs
// before the tree is shared).
func (p *PartialTree) fillSubtree(b int, counted bool) ([][]byte, error) {
	sub := p.scratch
	base := b * p.blockSize
	leaves := max(min(p.blockSize, p.n-base), 0)
	slab, ends := p.leafSlab[:0], p.ends[:]
	for j := 0; j < leaves; {
		k := min(shortsha.Lanes, leaves-j)
		start := len(slab)
		slab = p.run(slab, base+j, ends[:k])
		for _, end := range ends[:k] {
			if end < start || end > len(slab) {
				return nil, fmt.Errorf("%w: index %d", ErrNilLeaf, base+j)
			}
			sub[p.blockSize+j] = slab[start:end:end]
			start = end
			j++
		}
		if counted {
			p.rebuiltLeaves.Add(int64(k))
		}
	}
	for j := leaves; j < p.blockSize; j++ {
		sub[p.blockSize+j] = p.hs.pad
	}
	p.leafSlab = slab
	size := p.hs.fixedLen
	var run nodeRun
	for w := p.blockSize / 2; w >= 1; w /= 2 {
		for q := w; q < 2*w; q += shortsha.Lanes {
			end := min(q+shortsha.Lanes, 2*w)
			for i := q; i < end; i++ {
				run.add(sub[2*i], sub[2*i+1])
			}
			p.nh.hashRun(p.scratchArena[q*size:end*size], &run)
			for i := q; i < end; i++ {
				sub[i] = p.scratchArena[i*size : (i+1)*size : (i+1)*size]
			}
		}
	}
	return sub, nil
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
