// Package hashchain implements the iterated one-way function g of Section 4
// of "Uncheatable Grid Computing" (Du et al., ICDCS 2004).
//
// The non-interactive CBS scheme derives its own sample indices from the
// Merkle root commitment (Eq. 4):
//
//	i_k = (g^k(Φ(R)) mod n) + 1, k = 1..m
//
// where g^k is the k-fold application of a one-way hash g. Section 4.2
// additionally raises the cost of g by defining g ≡ hash^t (the hash iterated
// t times) so that the expected cost of the re-rolling attack exceeds the
// cost of honest computation (Eq. 5). Chain captures both roles: it is the
// function g with a configurable per-application iteration count.
package hashchain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/bits"

	"uncheatgrid/internal/shortsha"
)

// Errors reported by this package.
var (
	// ErrBadIterations is returned for a non-positive per-step iteration count.
	ErrBadIterations = errors.New("hashchain: iterations must be >= 1")
	// ErrBadSampleCount is returned for a non-positive sample count m.
	ErrBadSampleCount = errors.New("hashchain: sample count must be >= 1")
	// ErrBadDomain is returned for an empty sample domain.
	ErrBadDomain = errors.New("hashchain: domain size must be >= 1")
	// ErrEmptySeed is returned when the seed (the Merkle root) is empty.
	ErrEmptySeed = errors.New("hashchain: seed must not be empty")
)

// Hasher names a constructor for the base hash underlying g.
type Hasher func() hash.Hash

// Chain is the one-way function g. Applying the chain once costs Iterations
// invocations of the base hash; the zero-cost configuration is Iterations=1.
// A Chain is immutable and safe for concurrent use.
type Chain struct {
	// newHash is the WithHasher base hash, driven through hash.Hash; nil
	// selects the default, SHA-256 on the shortsha kernel.
	newHash    Hasher
	iterations int
}

// Option customizes a Chain.
type Option interface {
	apply(*Chain)
}

type hasherOption struct{ h Hasher }

func (o hasherOption) apply(c *Chain) { c.newHash = o.h }

// WithHasher selects the base hash (default SHA-256).
func WithHasher(h Hasher) Option { return hasherOption{h: h} }

// New constructs the function g = hash^iterations.
func New(iterations int, opts ...Option) (*Chain, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadIterations, iterations)
	}
	c := &Chain{iterations: iterations}
	for _, opt := range opts {
		opt.apply(c)
	}
	return c, nil
}

// Iterations reports the per-application base-hash count t in g = hash^t.
func (c *Chain) Iterations() int { return c.iterations }

// Apply computes g(value): the base hash applied Iterations times.
func (c *Chain) Apply(value []byte) []byte {
	w := c.walker()
	return w.step(make([]byte, 0, w.size()), value, nil)
}

// walker is one walk's hash state: none for the default chain, which
// hashes on the shortsha kernel, a fresh digest of the configured hash
// otherwise.
type walker struct {
	c *Chain
	h hash.Hash
}

func (c *Chain) walker() walker {
	if c.newHash == nil {
		return walker{c: c}
	}
	return walker{c: c, h: c.newHash()}
}

func (w walker) size() int {
	if w.h == nil {
		return shortsha.Size
	}
	return w.h.Size()
}

// step computes g(in || more) and returns the digest, written over dst's
// storage. dst may alias in: every input byte is absorbed before the digest
// is written, so a walk advances one state buffer in place and allocates
// nothing per application.
func (w walker) step(dst, in, more []byte) []byte {
	if w.h == nil {
		if len(more) > 0 {
			// A cursor's state and a window root: one digest each.
			var buf [2 * shortsha.Size]byte
			in = append(append(buf[:0], in...), more...)
		}
		sum := shortsha.Chain(in, w.c.iterations)
		return append(dst[:0], sum[:]...)
	}
	for i := 0; i < w.c.iterations; i++ {
		w.h.Reset()
		w.h.Write(in)
		w.h.Write(more)
		dst = w.h.Sum(dst[:0])
		in, more = dst, nil
	}
	return dst
}

// Walk returns the m successive chain states g^1(seed)..g^m(seed). The grid
// protocol uses the states both for index derivation and, in tests, to check
// that supervisor and participant walk identical chains.
func (c *Chain) Walk(seed []byte, m int) ([][]byte, error) {
	if len(seed) == 0 {
		return nil, ErrEmptySeed
	}
	if m < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadSampleCount, m)
	}
	w := c.walker()
	size := w.size()
	slab := make([]byte, m*size)
	states := make([][]byte, m)
	cur := seed
	for k := range states {
		cur = w.step(slab[k*size:k*size:(k+1)*size], cur, nil)
		states[k] = cur
	}
	return states, nil
}

// SampleIndices derives the m sample indices of Eq. (4) from the commitment.
// Indices are zero-based (the paper's (... mod n) + 1 converted to [0, n)),
// drawn from a domain of size n. Both supervisor and participant call this
// with the same root and must obtain the same indices. The walk keeps one
// hash state and one chain state whatever m is.
func (c *Chain) SampleIndices(root []byte, m int, n uint64) ([]uint64, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadDomain, n)
	}
	if len(root) == 0 {
		return nil, ErrEmptySeed
	}
	if m < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadSampleCount, m)
	}
	w := c.walker()
	state := make([]byte, 0, w.size())
	indices := make([]uint64, m)
	cur := root
	for k := range indices {
		state = w.step(state, cur, nil)
		cur = state
		indices[k] = indexFromDigest(state, n)
	}
	return indices, nil
}

// indexFromDigest maps a chain state to [0, n). The paper treats the hash as
// an unbiased random-bit generator; reducing 128 bits modulo n keeps the
// modulo bias below 2^-64 for any practical n.
func indexFromDigest(digest []byte, n uint64) uint64 {
	// Fold the digest to 16 bytes if shorter hashes (e.g. MD5) are in use.
	var hi, lo uint64
	switch {
	case len(digest) >= 16:
		hi = binary.BigEndian.Uint64(digest[:8])
		lo = binary.BigEndian.Uint64(digest[8:16])
	case len(digest) >= 8:
		lo = binary.BigEndian.Uint64(digest[:8])
	default:
		var buf [8]byte
		copy(buf[8-len(digest):], digest)
		lo = binary.BigEndian.Uint64(buf[:])
	}
	// Compute (hi·2^64 + lo) mod n with 128/64 division. Reducing hi first
	// guarantees the quotient fits in 64 bits, as bits.Div64 requires.
	_, rem := bits.Div64(hi%n, lo, n)
	return rem
}
