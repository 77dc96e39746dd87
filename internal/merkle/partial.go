package merkle

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	// workers is the resolved per-rebuild parallelism (1 = sequential).
	workers int

	// rebuiltLeaves counts leaf recomputations performed to serve proofs;
	// the experiments use it to measure rco.
	rebuiltLeaves atomic.Int64

	mu sync.Mutex // serializes the scratch state below
	// scratch is a reusable buffer for subtree rebuilds (2*blockSize slots);
	// with a fixed-size hash its internal-node digests live in scratchArena
	// rows, the leaf values are copied into leafSlabs (one slab per rebuild
	// shard, a single one when sequential) and nh is the reusable hash
	// state, so a rebuild allocates nothing.
	scratch      [][]byte
	scratchArena []byte
	leafSlabs    [][]byte
	nh           *nodeHasher
}

// NewPartial builds a partial tree over n leaves whose values are produced
// by leafAt. leafAt must be deterministic: construction calls it exactly
// once per index in [0, n) — callers may hang once-per-input side effects on
// that pass — and Prove calls it again for every leaf of the subtree it
// rebuilds. As with BuildFunc, each value is copied as it is produced and
// not retained, so leafAt may reuse its buffer between calls. ℓ = 0 stores
// the full tree; ℓ = H stores only the root.
//
// WithParallelism(p) shards each subtree rebuild — at construction and for
// every Prove — across up to p goroutines; leafAt is then called
// concurrently (still exactly once per leaf of the block) and must be safe
// for concurrent use (a reused buffer must then be per goroutine). Roots,
// proofs, and rebuild accounting are bit-identical to a sequential tree:
// only the hashing schedule changes. Rebuilds of blocks smaller than 1024
// leaves stay sequential.
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
	o := buildOptions(opts)
	hs := newHashers(o)
	blockSize := 1 << ell
	numBlocks := capacity / blockSize

	p := &PartialTree{
		n:         n,
		cap:       capacity,
		ell:       ell,
		blockSize: blockSize,
		top:       make([][]byte, 2*numBlocks),
		leafAt:    leafAt,
		hs:        hs,
		workers:   rebuildWorkers(o.parallelism, blockSize),
		scratch:   make([][]byte, 2*blockSize),
	}
	for b := 0; b < numBlocks; b++ {
		p.top[numBlocks+b] = p.subtreeRoot(b, false)
	}
	for i := numBlocks - 1; i >= 1; i-- {
		p.top[i] = hs.combine(p.top[2*i], p.top[2*i+1])
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

// Prove produces the audit path for leaf i, rebuilding the containing
// subtree (recomputing f for its 2^ℓ leaves) and then continuing through the
// stored top levels. The resulting proof is byte-identical to the one a full
// Tree would produce.
func (p *PartialTree) Prove(i int) (*Proof, error) {
	if i < 0 || i >= p.n {
		return nil, fmt.Errorf("%w: %d not in [0, %d)", ErrIndexOutOfRange, i, p.n)
	}
	block := i / p.blockSize

	p.mu.Lock()
	defer p.mu.Unlock()

	siblings := make([][]byte, 0, p.Height())
	var value []byte
	if p.ell > 0 {
		sub := p.rebuildSubtree(block)
		local := i % p.blockSize
		value = cloneBytes(sub[p.blockSize+local])
		for pos := p.blockSize + local; pos > 1; pos /= 2 {
			siblings = append(siblings, cloneBytes(sub[pos^1]))
		}
	} else {
		value = cloneBytes(p.top[len(p.top)/2+block])
	}
	numBlocks := len(p.top) / 2
	for pos := numBlocks + block; pos > 1; pos /= 2 {
		siblings = append(siblings, cloneBytes(p.top[pos^1]))
	}
	return &Proof{Index: i, N: p.n, Value: value, Siblings: siblings}, nil
}

// subtreeRoot computes the root of block b. When counted is true the leaf
// evaluations are added to the rebuild accounting. The root is cloned out of
// the scratch state, which the next rebuild overwrites.
func (p *PartialTree) subtreeRoot(b int, counted bool) []byte {
	sub := p.fillSubtree(b, counted)
	return cloneBytes(sub[1])
}

// rebuildSubtree recomputes the full node set of block b into the scratch
// buffer and returns it. Callers must hold p.mu.
func (p *PartialTree) rebuildSubtree(b int) [][]byte {
	return p.fillSubtree(b, true)
}

// rebuildWorkers resolves the per-rebuild worker count. Unlike the full
// tree's buildWorkers it does not clamp to runtime.NumCPU(): a rebuild runs
// under p.mu (one proof at a time), the goroutine count is bounded by the
// caller's request, and the result is schedule-independent either way.
// Blocks below parallelMinLeaves always rebuild sequentially — goroutine
// startup would cost more than it saves.
func rebuildWorkers(requested, blockSize int) int {
	if requested <= 1 || blockSize < parallelMinLeaves {
		return 1
	}
	if max := blockSize / 2; requested > max {
		requested = max
	}
	return requested
}

// ensureScratch lazily builds the reusable rebuild state: the node-slot
// buffer, the arena rows backing internal digests, and the hash state. Lazy
// so snapshot-restored trees get it on first use under p.mu.
func (p *PartialTree) ensureScratch() {
	if p.scratch == nil {
		p.scratch = make([][]byte, 2*p.blockSize)
	}
	if p.nh == nil {
		p.nh = p.hs.node()
	}
	if p.scratchArena == nil {
		p.scratchArena = newNodeArena(p.hs, p.blockSize)
	}
	if p.leafSlabs == nil {
		p.leafSlabs = make([][]byte, p.rebuildShards())
	}
}

// rebuildShards is the number of leaf spans a rebuild cuts the block into,
// one per goroutine; 1 for a sequential tree.
func (p *PartialTree) rebuildShards() int {
	if p.workers <= 1 {
		return 1
	}
	return min(nextPow2(p.workers), p.blockSize/2)
}

// fillLeafSpan evaluates the block's leaves [lo, hi) (block-relative, block
// starting at tree index base) into sub's leaf slots, copying every value
// into the span's reusable slab: leafAt may hand back the same buffer each
// time. A slot set before the slab had to grow keeps pointing at the
// outgrown array, whose bytes append leaves as they were.
func (p *PartialTree) fillLeafSpan(sub [][]byte, slab []byte, base, lo, hi int, counted bool) []byte {
	slab = slab[:0]
	for j := lo; j < hi; j++ {
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
	return slab
}

// fillSubtree populates the scratch buffer with the heap-layout subtree of
// block b. Leaves beyond n take the pad digest. Callers must hold p.mu (or
// be the constructor, which runs before the tree is shared).
func (p *PartialTree) fillSubtree(b int, counted bool) [][]byte {
	p.ensureScratch()
	sub := p.scratch
	base := b * p.blockSize
	if p.workers > 1 {
		p.fillSubtreeParallel(sub, base, counted)
		return sub
	}
	p.leafSlabs[0] = p.fillLeafSpan(sub, p.leafSlabs[0], base, 0, p.blockSize, counted)
	for i := p.blockSize - 1; i >= 1; i-- {
		sub[i] = p.nh.combineInto(arenaRow(p.scratchArena, p.hs.fixedLen, i), sub[2*i], sub[2*i+1])
	}
	return sub
}

// fillSubtreeParallel is the sharded twin of the sequential pass in
// fillSubtree: the block's leaf span is cut into equal-sized sub-subtrees,
// each evaluated and hashed bottom-up by its own goroutine, and the top
// log2(shards) levels are combined sequentially. Node values are
// bit-identical to the sequential schedule — structure, padding, and hash
// inputs are unchanged.
func (p *PartialTree) fillSubtreeParallel(sub [][]byte, base int, counted bool) {
	shards := p.rebuildShards()
	span := p.blockSize / shards
	var wg sync.WaitGroup
	wg.Add(shards)
	for s := 0; s < shards; s++ {
		go func(s int) {
			defer wg.Done()
			// Per-goroutine hash state; the arena rows written here are the
			// shard's own subtree nodes, disjoint from every other shard.
			nh := p.hs.node()
			lo := s * span
			p.leafSlabs[s] = p.fillLeafSpan(sub, p.leafSlabs[s], base, lo, lo+span, counted)
			root := (p.blockSize + lo) / span
			for w := span / 2; w >= 1; w /= 2 {
				for q := root * w; q < (root+1)*w; q++ {
					sub[q] = nh.combineInto(arenaRow(p.scratchArena, p.hs.fixedLen, q), sub[2*q], sub[2*q+1])
				}
			}
		}(s)
	}
	wg.Wait()
	for i := shards - 1; i >= 1; i-- {
		sub[i] = p.nh.combineInto(arenaRow(p.scratchArena, p.hs.fixedLen, i), sub[2*i], sub[2*i+1])
	}
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
