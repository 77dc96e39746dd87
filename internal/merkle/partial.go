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
	top    [][]byte
	leafAt func(i int) []byte
	hs     hashers

	// rebuiltLeaves counts leaf recomputations performed to serve proofs;
	// the experiments use it to measure rco.
	rebuiltLeaves atomic.Int64

	mu sync.Mutex // serializes the scratch state below
	// scratch is a reusable buffer for subtree rebuilds (2*blockSize slots):
	// its internal-node digests live in scratchArena rows, the leaf values
	// are copied into leafSlab and nh is the reusable hash state, so a
	// rebuild allocates nothing.
	scratch      [][]byte
	scratchArena []byte
	leafSlab     []byte
	nh           *nodeHasher
}

// NewPartial builds a partial tree over n leaves whose values are produced
// by leafAt. leafAt must be deterministic: construction calls it exactly
// once per index in [0, n) — callers may hang once-per-input side effects on
// that pass — and ProveMulti calls it again for every leaf of each subtree
// it rebuilds. As with BuildFunc, each value is copied as it is produced and
// not retained, so leafAt may reuse its buffer between calls. ℓ = 0 stores
// the full tree; ℓ = H stores only the root.
func NewPartial(n, ell int, leafAt func(i int) []byte, opts ...Option) (*PartialTree, error) {
	if n <= 0 {
		return nil, ErrEmptyTree
	}
	if leafAt == nil {
		return nil, fmt.Errorf("%w: nil leafAt", ErrNilLeaf)
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
		leafAt:       leafAt,
		hs:           hs,
		scratch:      make([][]byte, 2*blockSize),
		scratchArena: newNodeArena(hs, blockSize),
		nh:           hs.node(),
	}
	for b := 0; b < numBlocks; b++ {
		p.top[numBlocks+b] = cloneBytes(p.fillSubtree(b, false)[1])
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
// take the pad digest, and every other leaf value is copied into the
// reusable slab: leafAt may hand back the same buffer each time. A slot set
// before the slab had to grow keeps pointing at the outgrown array, whose
// bytes append leaves as they were. When counted is true the leaf
// evaluations are added to the rebuild accounting. Callers must hold p.mu
// (or be the constructor, which runs before the tree is shared).
func (p *PartialTree) fillSubtree(b int, counted bool) [][]byte {
	sub := p.scratch
	base := b * p.blockSize
	slab := p.leafSlab[:0]
	for j := 0; j < p.blockSize; j++ {
		idx := base + j
		if idx >= p.n {
			sub[p.blockSize+j] = p.hs.pad
			continue
		}
		start := len(slab)
		slab = append(slab, p.leafAt(idx)...)
		sub[p.blockSize+j] = slab[start:len(slab):len(slab)]
		if counted {
			p.rebuiltLeaves.Add(1)
		}
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
	return sub
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
