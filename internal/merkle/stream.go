package merkle

import (
	"errors"
	"fmt"
)

// Streaming errors.
var (
	// ErrTooManyLeaves is returned when Add is called more than n times.
	ErrTooManyLeaves = errors.New("merkle: more leaves added than declared")
	// ErrIncomplete is returned when Root is requested before all n leaves
	// have been added.
	ErrIncomplete = errors.New("merkle: not all declared leaves were added")
)

// StreamBuilder computes the Merkle root of an n-leaf tree in a single
// left-to-right pass using O(log n) memory. Participants with domains far
// larger than RAM (the paper discusses |D| = 2^40) use it to produce the
// commitment without materializing the tree; proofs are then served by a
// PartialTree that rebuilds subtrees on demand (Section 3.3).
//
// The builder is allocation-free in steady state: every internal digest is
// written into one of two ping-pong rows per level of a small arena
// allocated up front. Leaf values are retained by reference until absorbed
// into a digest (at the latest, the next Add), so callers must not mutate a
// value after passing it to Add.
type StreamBuilder struct {
	n     int
	added int
	cap   int
	depth int
	hs    hashers
	root  []byte

	// pending[L] holds the root of a completed height-L subtree awaiting its
	// right sibling; slot occupancy mirrors the binary representation of
	// added (bit L set <=> pending[L] occupied), exactly the classic
	// binary-counter formulation of the O(log n) stack. Digests for levels
	// >= 1 live in two alternating arena rows per level, so a merge cascade
	// never writes a row that still holds a live pending digest.
	pending [][]byte
	flip    []uint8
	arena   []byte
	nh      *nodeHasher
}

// NewStreamBuilder prepares a builder for exactly n leaves.
func NewStreamBuilder(n int, opts ...Option) (*StreamBuilder, error) {
	if n <= 0 {
		return nil, ErrEmptyTree
	}
	hs := newHashers(buildOptions(opts))
	if hs.fixedLen == 0 {
		return nil, ErrHasherSize
	}
	capacity := nextPow2(n)
	depth := log2(capacity)
	return &StreamBuilder{
		n:       n,
		cap:     capacity,
		depth:   depth,
		hs:      hs,
		pending: make([][]byte, depth+1),
		flip:    make([]uint8, depth+1),
		arena:   make([]byte, 2*depth*hs.fixedLen),
		nh:      hs.node(),
	}, nil
}

// Add appends the next leaf value (leaves must arrive in index order). The
// trailing 1-bits of added say exactly which levels already hold a pending
// left sibling, so the new leaf merges upward once per trailing 1-bit and
// parks at the first 0-bit.
func (b *StreamBuilder) Add(value []byte) error {
	if value == nil {
		return fmt.Errorf("%w: index %d", ErrNilLeaf, b.added)
	}
	if b.added >= b.n {
		return ErrTooManyLeaves
	}
	cur := value
	level := 0
	for b.added>>uint(level)&1 == 1 {
		cur = b.nh.combineInto(b.levelRow(level+1), b.pending[level], cur)
		b.pending[level] = nil
		level++
	}
	b.pending[level] = cur
	b.added++
	return nil
}

// Added reports how many leaves have been consumed so far.
func (b *StreamBuilder) Added() int { return b.added }

// Root finalizes the tree, padding to the next power of two, and returns the
// commitment Φ(R). It may only be called after all n leaves have been added;
// repeated calls return the same root.
func (b *StreamBuilder) Root() ([]byte, error) {
	if b.added < b.n {
		return nil, fmt.Errorf("%w: have %d of %d", ErrIncomplete, b.added, b.n)
	}
	if b.root == nil {
		b.root = b.finalize()
	}
	return cloneBytes(b.root), nil
}

// levelRow hands out the next of level's two alternating arena rows. A
// level-L digest is produced once per 2^L leaves and consumed one production
// later at most, so at any moment a level has at most one live digest (the
// pending one) plus the one being written — and they always land in
// different rows. combineInto additionally absorbs its inputs before writing
// dst, so even the cascade's transient values never conflict.
func (b *StreamBuilder) levelRow(level int) []byte {
	f := b.flip[level]
	b.flip[level] = 1 - f
	base := (2*(level-1) + int(f)) * b.hs.fixedLen
	return b.arena[base : base : base+b.hs.fixedLen]
}

// finalize folds the pending slots with all-pad subtree roots: the root of a
// height-L subtree whose leaves are all pads is padAt(L) from
// nodeHasher.padTable, so finishing costs O(depth) hashes instead of cap-n pad
// pushes. The result is byte-identical to pushing each pad leaf (induction
// on L: pushing 2^L pads yields exactly padAt(L)).
func (b *StreamBuilder) finalize() []byte {
	if b.cap == 1 {
		return b.pending[0]
	}
	pads := b.nh.padTable(b.depth - 1)
	// cur is the root of the padded subtree covering the tail of the level,
	// or nil while the tail is still all-pad (absorbed by higher padAt).
	var cur []byte
	for level := 0; level < b.depth; level++ {
		have := b.added>>uint(level)&1 == 1
		switch {
		case have && cur != nil:
			cur = b.nh.combine(b.pending[level], cur)
		case have:
			cur = b.nh.combine(b.pending[level], pads[level])
		case cur != nil:
			cur = b.nh.combine(cur, pads[level])
		}
	}
	if cur == nil {
		// n is a power of two: the lone pending slot at the top is the root.
		cur = b.pending[b.depth]
	}
	return cur
}
