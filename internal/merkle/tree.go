// Package merkle implements the Merkle (hash) tree used by the
// Commitment-Based Sampling scheme of "Uncheatable Grid Computing"
// (Du, Jia, Mangal, Murugesan; ICDCS 2004), Section 3.
//
// Following Eq. (1) of the paper, the tree is a complete binary tree whose
// leaf assignment is the raw computation result, Φ(Li) = f(xi), and whose
// internal assignment is the hash of the two children,
// Φ(V) = hash(Φ(Vleft) || Φ(Vright)).
//
// Two deliberate hardenings over the paper's abstract description:
//
//   - Internal hashing is length-prefixed and domain-separated
//     (hash(0x01 || len(l) || l || len(r) || r)) so that variable-length leaf
//     values cannot produce concatenation ambiguities.
//   - Domains whose size is not a power of two are padded with a fixed,
//     domain-separated pad digest so the tree stays complete, as the paper
//     assumes.
//
// The package provides a fully materialized Tree, a constant-memory
// StreamBuilder, and the storage-bounded PartialTree of Section 3.3.
//
// One form of evidence travels on the wire: the MultiProof, the answer to a
// whole challenge of m samples from one tree (Step 3, Section 3.1). The m
// audit paths merge on their way up, so it holds each distinct sample's
// value and only the siblings that are not themselves on a sampled path,
// every one once — 51.9 siblings instead of 128 for 16 samples of 256
// leaves. Both trees produce it byte-identically and a ProofVerifier
// reconstructs the root from it. A Proof is one leaf's audit path — the
// leaf value and the H sibling values up to the root — kept as an in-memory
// view of the one-sample multiproof for callers that audit a single leaf.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"uncheatgrid/internal/shortsha"
)

// Errors reported by this package. They are exported so protocol layers can
// distinguish malformed inputs from genuine verification failures.
var (
	// ErrEmptyTree is returned when a tree is requested over zero leaves.
	ErrEmptyTree = errors.New("merkle: tree must have at least one leaf")
	// ErrIndexOutOfRange is returned when a leaf index falls outside [0, n).
	ErrIndexOutOfRange = errors.New("merkle: leaf index out of range")
	// ErrNilLeaf is returned when a leaf value is nil. Empty (zero-length)
	// values are legal; nil indicates a caller bug.
	ErrNilLeaf = errors.New("merkle: leaf value must not be nil")
	// ErrHasherSize is returned by every constructor and by verification for
	// a hasher whose Sum length disagrees with its Size(): digests are laid
	// out in Size()-byte rows.
	ErrHasherSize = errors.New("merkle: hasher Sum length disagrees with Size()")
	// ErrLeafSlabTooLarge is returned by Build and BuildFunc when the leaf
	// values together exceed what the tree's 32-bit leaf offsets can address.
	ErrLeafSlabTooLarge = errors.New("merkle: leaf values exceed 4 GiB in total")
)

const (
	// prefix bytes for domain separation inside the hash input.
	nodePrefix byte = 0x01
	padPrefix  byte = 0x00
)

// Hasher names a constructor for the one-way hash used throughout the tree.
// The paper suggests MD5 or SHA; the default is SHA-256.
type Hasher func() hash.Hash

// options collects construction parameters for trees and proofs.
type options struct {
	hasher      Hasher
	parallelism int
}

// Option customizes tree construction and proof verification. The same
// options must be used on both sides of the protocol. Options map an
// options value to an options value, so the one a constructor builds never
// escapes to the heap.
type Option interface {
	apply(options) options
}

type hasherOption struct{ h Hasher }

func (o hasherOption) apply(opts options) options {
	opts.hasher = o.h
	return opts
}

// WithHasher selects the one-way hash function for internal nodes.
func WithHasher(h Hasher) Option { return hasherOption{h: h} }

type parallelismOption struct{ p int }

func (o parallelismOption) apply(opts options) options {
	opts.parallelism = o.p
	return opts
}

// WithParallelism shards leaf evaluation and subtree hashing during Build
// and BuildFunc across a worker pool of up to p goroutines. The resulting
// tree — root, proofs, everything — is bit-identical to a sequential
// build; only the construction schedule changes. p <= 1 selects the
// sequential builder; p == 0 (the zero value) likewise. Pass
// runtime.NumCPU() for a hardware-sized pool.
//
// The effective worker count is clamped to runtime.NumCPU() (hashing is
// CPU-bound) and to half the padded leaf count, and trees smaller than
// 1024 padded leaves always build sequentially — goroutine startup would
// cost more than it saves.
//
// With p > 1 the leaf run passed to Rebuild — or the per-leaf producer
// passed to BuildFunc — is called concurrently from multiple goroutines
// (still exactly once per index, but no longer in order), so it must be
// safe for concurrent use. Trees built by Build are unaffected: slice
// indexing is always safe.
//
// Only Build, BuildFunc and Rebuild honour the option. NewStreamBuilder,
// NewPartial and verification accept and ignore it, so one option list
// serves them all.
func WithParallelism(p int) Option { return parallelismOption{p: p} }

func buildOptions(opts []Option) options {
	var o options // a nil hasher selects the default, SHA-256
	for _, opt := range opts {
		o = opt.apply(o)
	}
	return o
}

// hashers bundles the configured hash with the derived pad digest so the
// expensive pad computation happens once per tree.
type hashers struct {
	newHash Hasher
	pad     []byte
	// fixedLen is the digest length when the hash produces fixed-size
	// output (every standard hash does). 0 marks a custom hasher whose Sum
	// length disagrees with Size(), which everything refuses (ErrHasherSize).
	fixedLen int
	// shared marks defaultHashers' bundle, the one bundle two constructions
	// can be known to have in common: hash constructors do not compare.
	shared bool
}

// defaultHashers is the SHA-256 bundle every tree, builder and verification
// without WithHasher shares, so the pad digest is hashed once per process
// instead of once per tree or proof. The pad is read-only like every node
// value a Tree hands out.
var defaultHashers = sync.OnceValue(func() hashers {
	//gridlint:ignore shortsha the default Hasher derives the pad digest; its nodes hash on the kernel (nodeHasher.combineInto)
	hs := deriveHashers(sha256.New)
	hs.shared = true
	return hs
})

func newHashers(o options) hashers {
	if o.hasher == nil {
		return defaultHashers()
	}
	return deriveHashers(o.hasher)
}

func deriveHashers(newHash Hasher) hashers {
	h := newHash()
	h.Write([]byte{padPrefix})
	h.Write([]byte("uncheatgrid/merkle: pad leaf"))
	pad := h.Sum(nil)
	fixedLen := 0
	if h.Size() == len(pad) {
		fixedLen = len(pad)
	}
	return hashers{newHash: newHash, pad: pad, fixedLen: fixedLen}
}

// nodeHasher is a reusable hashing state for the build hot paths, with
// digests written into caller-provided rows. For the default hash a node's
// message is laid out in msg and hashed on the shortsha kernel; a WithHasher
// hash is one instance h, reset per node instead of allocated per node, fed
// through buf, a struct field so the slices handed to hash.Write never
// escape per call. A nodeHasher is not safe for concurrent use — each
// goroutine takes its own from hashers.node().
type nodeHasher struct {
	hs  hashers
	h   hash.Hash
	msg []byte
	buf [1 + binary.MaxVarintLen64]byte
	// msgInit is msg's first storage, enough for two 32-byte children.
	msgInit [maxRunMsg]byte
}

func (hs hashers) node() *nodeHasher {
	nh := &nodeHasher{hs: hs}
	if hs.shared {
		nh.msg = nh.msgInit[:0]
	} else {
		nh.h = hs.newHash()
	}
	return nh
}

// nodeMsg appends the message of the node over left and right to dst:
// 0x01 || uvarint(len(left)) || left || uvarint(len(right)) || right.
func nodeMsg(dst, left, right []byte) []byte {
	dst = append(dst, nodePrefix)
	dst = binary.AppendUvarint(dst, uint64(len(left)))
	dst = append(dst, left...)
	dst = binary.AppendUvarint(dst, uint64(len(right)))
	return append(dst, right...)
}

// nodeFor returns a node hasher for the hash o selects: prev itself when it
// already hashes with it — knowable for the default hash only — and a fresh
// one otherwise. It is how a rebuilt Tree and a reset ProofVerifier keep
// their hash state.
func nodeFor(prev *nodeHasher, o options) *nodeHasher {
	if prev != nil && prev.hs.shared && o.hasher == nil {
		return prev
	}
	return newHashers(o).node()
}

// combineInto computes the Φ value of an internal node from its two
// children into dst, which must have capacity fixedLen. The children are
// length-prefixed to rule out ambiguity between variable-length leaves:
// hash(0x01 || uvarint(len(left)) || left || uvarint(len(right)) || right).
// dst may alias left or right: both are absorbed into the hash state before
// dst is written.
func (nh *nodeHasher) combineInto(dst, left, right []byte) []byte {
	if nh.hs.shared {
		nh.msg = nodeMsg(nh.msg[:0], left, right)
		sum := shortsha.Sum256(nh.msg)
		return append(dst[:0], sum[:]...)
	}
	nh.buf[0] = nodePrefix
	n := binary.PutUvarint(nh.buf[1:], uint64(len(left)))
	h := nh.h
	h.Reset()
	h.Write(nh.buf[:1+n])
	h.Write(left)
	n = binary.PutUvarint(nh.buf[:], uint64(len(right)))
	h.Write(nh.buf[:n])
	h.Write(right)
	return h.Sum(dst[:0])
}

// nodeRun is up to shortsha.Lanes nodes of one level, named by their
// children, for hashRun to hash together. It is a builder's stack value.
type nodeRun struct {
	k           int
	left, right [shortsha.Lanes][]byte
}

// add appends the node over left and right to the run.
func (r *nodeRun) add(left, right []byte) {
	r.left[r.k], r.right[r.k] = left, right
	r.k++
}

// full reports whether the run holds shortsha.Lanes nodes.
func (r *nodeRun) full() bool { return r.k == shortsha.Lanes }

// maxRunMsg is the longest node message hashRun lays out for a batch, and
// the room combineInto starts with: two children of at most a digest each,
// each behind its one-byte length.
const maxRunMsg = 1 + 2*(1+shortsha.Size)

// hashRun writes the Φ values of r's nodes, node j's to the row
// dst[j*fixedLen:(j+1)*fixedLen], and empties r. For the default hash it
// lays every node's message out on the stack before it writes any row —
// node j's at offset j*maxRunMsg, its fields at fixed places, since a child
// of at most a digest has a one-byte uvarint length — and hashes each
// stretch of consecutive nodes whose messages have one length in one
// shortsha.Batch call: a level is one length but for the run where real
// leaves meet the pad digest. A WithHasher hash, or a run with a child
// longer than a digest, is hashed node by node in order, each row written
// once its own node's children are read. Either way a row may alias a child
// of its own node or of an earlier one, never of a later one.
func (nh *nodeHasher) hashRun(dst []byte, r *nodeRun) {
	size, k := nh.hs.fixedLen, r.k
	r.k = 0
	batched := nh.hs.shared
	for j := 0; j < k && batched; j++ {
		batched = len(r.left[j]) <= shortsha.Size && len(r.right[j]) <= shortsha.Size
	}
	if !batched {
		for j := range k {
			nh.combineInto(dst[j*size:j*size:(j+1)*size], r.left[j], r.right[j])
		}
		return
	}
	var msgs [shortsha.Lanes * maxRunMsg]byte
	var lens [shortsha.Lanes]int
	for j := range k {
		left, right := r.left[j], r.right[j]
		m := msgs[j*maxRunMsg : (j+1)*maxRunMsg]
		m[0] = nodePrefix
		m[1] = byte(len(left))
		copy(m[2:], left)
		m[2+len(left)] = byte(len(right))
		copy(m[3+len(left):], right)
		lens[j] = 3 + len(left) + len(right)
	}
	for j := 0; j < k; {
		e := j + 1
		for e < k && lens[e] == lens[j] {
			e++
		}
		shortsha.Batch(dst[j*size:e*size], msgs[j*maxRunMsg:(e-1)*maxRunMsg+lens[j]], maxRunMsg, lens[j], 1)
		j = e
	}
}

// combine is combineInto a fresh digest, for the few nodes a structure
// keeps apart from its arena.
func (nh *nodeHasher) combine(left, right []byte) []byte {
	return nh.combineInto(make([]byte, 0, nh.hs.fixedLen), left, right)
}

// padTable returns padAt(0..maxLevel), where padAt(L) is the root of a
// height-L subtree whose every leaf is the pad digest: padAt(0) = pad,
// padAt(L) = combine(padAt(L-1), padAt(L-1)).
func (nh *nodeHasher) padTable(maxLevel int) [][]byte {
	pads := make([][]byte, maxLevel+1)
	pads[0] = nh.hs.pad
	for l := 1; l <= maxLevel; l++ {
		pads[l] = nh.combine(pads[l-1], pads[l-1])
	}
	return pads
}

// Tree is a fully materialized Merkle tree over n leaf values. It is the
// participant-side data structure of the CBS scheme (Step 1, Section 3.1).
// A Tree is immutable between builds and safe for concurrent reads.
//
// The tree holds no per-node pointers: internal digests live in one arena,
// leaf values are copied into one slab delimited by an offset table, and
// every padding leaf is the shared pad digest. node is the single accessor
// over the three, so a finished tree is a handful of allocations the
// collector never walks, however many leaves it has — and Rebuild fills the
// same handful again for the next tree.
type Tree struct {
	n   int // number of real leaves
	cap int // leaves after padding; power of two, cap >= n
	hs  hashers
	// nh is the sequential build's hash state, kept for the next Rebuild.
	nh *nodeHasher
	// arena backs the internal nodes in heap layout: node i (1 <= i < cap,
	// node 1 the root) is arena[i*fixedLen:(i+1)*fixedLen].
	arena []byte
	// slab holds the leaf values back to back in index order; leaf i is
	// slab[offs[i]:offs[i+1]]. offs has n+1 entries. The slab is non-nil even
	// when every leaf is empty: a leaf value never reads as nil.
	slab []byte
	offs []uint32
	// ends is the sequential build's run ends, here because a LeafRun is
	// free to keep what it is handed as far as the compiler knows.
	ends [shortsha.Lanes]int
}

// LeafRun produces leaf values a run of consecutive leaves at a time, in the
// shape of cheat.Producer.AppendClaimBatch: it appends the values of leaves
// lo, lo+1, …, lo+len(ends)-1 to dst in index order, sets ends[j] to the
// offset in the returned slice where leaf lo+j's value ends, and returns the
// extended slice. dst is the structure's own leaf storage, so the values
// land where they are hashed from and are copied nowhere else; a LeafRun
// must not retain dst. A run that has no value for a leaf — PerLeaf's nil —
// sets its end to -1, which fails the build with ErrNilLeaf.
type LeafRun func(dst []byte, lo int, ends []int) []byte

// PerLeaf is the LeafRun of a per-leaf producer: each run calls at once per
// index, in order, and appends each value before asking for the next, so at
// may reuse its buffer between calls. A nil value ends the run at its index
// with end -1.
func PerLeaf(at func(i int) []byte) LeafRun {
	return func(dst []byte, lo int, ends []int) []byte {
		for j := range ends {
			v := at(lo + j)
			if v == nil {
				ends[j] = -1
				return dst
			}
			dst = append(dst, v...)
			ends[j] = len(dst)
		}
		return dst
	}
}

// Build constructs the tree over the given leaf values. values[i] holds the
// raw computation result f(xi); values must be non-empty and every entry
// non-nil. The values are copied into the tree's leaf slab: the tree keeps
// no reference to the caller's slices.
func Build(values [][]byte, opts ...Option) (*Tree, error) {
	if len(values) == 0 {
		return nil, ErrEmptyTree
	}
	return BuildFunc(len(values), func(i int) []byte { return values[i] }, opts...)
}

// BuildFunc constructs the tree over n leaves whose values are produced by
// at(i): Rebuild of an empty Tree with PerLeaf(at). It avoids materializing
// a separate value slice: each value is copied into the tree's leaf slab as
// it is produced and not retained, so at may reuse its buffer between calls.
//
// Construction calls at exactly once per index in [0, n) — in order by
// default, concurrently (and out of order) when WithParallelism selects a
// worker pool — and never afterwards: proofs read the slab. Callers may hang
// once-per-input side effects on at.
func BuildFunc(n int, at func(i int) []byte, opts ...Option) (*Tree, error) {
	t := new(Tree)
	if err := t.Rebuild(n, PerLeaf(at), opts...); err != nil {
		return nil, err
	}
	return t, nil
}

// Rebuild makes t the tree over n leaves whose values run produces — the
// one build routine, BuildFunc being Rebuild of an empty Tree — inside the
// storage t already owns: the arena, the offset table and the leaf slab are
// kept wherever they are large enough, and so is the hash state when both
// trees hash with the default. Nothing kept is cleared first: every arena
// row and every offset is written before it is read. A parallel build still
// joins its shards into a slab of its own.
//
// run appends its values straight into the leaf slab, shortsha.Lanes
// leaves a run (a slab not yet sized has its first run cut in two: one
// leaf, whose length sizes it, then the rest). Construction asks for every
// index in [0, n) exactly once, in runs in index order by default,
// concurrently (and out of order, each shard's runs in order) when
// WithParallelism selects a worker pool — and never afterwards: proofs read
// the slab. Callers may hang once-per-input side effects on run.
//
// Everything the previous tree handed out — leaves, proofs' sibling digests —
// aliases that storage and is overwritten; the caller must be done with it,
// and with every concurrent read. After an error t holds no tree and must be
// rebuilt before it is used.
func (t *Tree) Rebuild(n int, run LeafRun, opts ...Option) error {
	o := buildOptions(opts)
	if err := t.layout(n, o); err != nil {
		return err
	}
	if workers := buildWorkers(o.parallelism, t.cap); workers > 1 {
		return t.fillParallel(run, workers)
	}
	slab, err := t.fillLeaves(t.slab, 0, n, run, t.ends[:], nil)
	if err != nil {
		return err
	}
	t.slab = slab
	t.hashSubtree(t.nh, 1, t.cap)
	return nil
}

// layout sizes t for an n-leaf tree under o for a builder to fill: the hash
// state, the node arena and the offset table, no leaves yet.
func (t *Tree) layout(n int, o options) error {
	if n <= 0 {
		return ErrEmptyTree
	}
	nh := nodeFor(t.nh, o)
	if nh.hs.fixedLen == 0 {
		return ErrHasherSize
	}
	t.nh, t.hs = nh, nh.hs
	t.n, t.cap = n, nextPow2(n)
	if need := t.cap * t.hs.fixedLen; cap(t.arena) < need {
		t.arena = newNodeArena(t.hs, t.cap)
	} else {
		t.arena = t.arena[:need]
	}
	if cap(t.offs) < n+1 {
		t.offs = make([]uint32, n+1)
	}
	t.offs = t.offs[:n+1]
	t.offs[0] = 0
	return nil
}

// node returns the Φ value of heap node i (1 <= i < 2*cap): an arena row
// for an internal node, a slab span for a real leaf, the pad digest past
// the last one. The result aliases the tree and is capacity-bounded.
func (t *Tree) node(i int) []byte {
	if i < t.cap {
		size := t.hs.fixedLen
		return t.arena[i*size : (i+1)*size : (i+1)*size]
	}
	if leaf := i - t.cap; leaf < t.n {
		lo, hi := t.offs[leaf], t.offs[leaf+1]
		return t.slab[lo:hi:hi]
	}
	return t.hs.pad
}

// slabGuessMax caps the leaf slab reserved from the first value's length;
// past it append's doubling takes over.
const slabGuessMax = 1 << 26

// slabGuess sizes a slab for count leaves from the length of the first,
// exact when values are uniform (every workload's are).
func slabGuess(count, first int) int {
	if first > 0 && count > slabGuessMax/first {
		return slabGuessMax
	}
	return count * first
}

// checkSlab reports whether a slab holding size bytes can take add more
// without an end offset wrapping uint32.
func checkSlab(size, add int) error {
	if uint64(size)+uint64(add) > math.MaxUint32 {
		return ErrLeafSlabTooLarge
	}
	return nil
}

// fillLeaves has run append leaves [lo, hi) to a slab — the one passed in,
// grown when it is smaller than the size the first value predicts, and
// never a nil one — in runs of len(ends) leaves from lo on, in order (a
// fresh slab's first run is one leaf, whose length sizes it, and the next
// the rest of that run), and records each leaf's end offset within that
// slab in offs[i+1]; offs[lo] is not touched, so concurrent fills of
// disjoint spans do not share an entry. With a non-nil stop (the parallel
// builder's shared failure flag) it returns early with a nil slab once stop
// is set.
func (t *Tree) fillLeaves(slab []byte, lo, hi int, run LeafRun, ends []int, stop *atomic.Bool) ([]byte, error) {
	slab = slab[:0]
	for i := lo; i < hi; {
		if stop != nil && stop.Load() {
			return nil, nil
		}
		k := min(len(ends)-(i-lo)%len(ends), hi-i)
		if i == lo && cap(slab) == 0 {
			k = 1 // a fresh slab is sized from the first value
		}
		start := len(slab)
		slab = run(slab, i, ends[:k])
		for j, end := range ends[:k] {
			if end < start || end > len(slab) {
				return nil, fmt.Errorf("%w: index %d", ErrNilLeaf, i+j)
			}
			t.offs[i+j+1], start = uint32(end), end
		}
		if err := checkSlab(len(slab), 0); err != nil {
			return nil, err
		}
		if i == lo {
			if guess := slabGuess(hi-lo, ends[0]); cap(slab) < guess {
				slab = append(make([]byte, 0, guess), slab...)
			}
		}
		i += k
	}
	if slab == nil {
		slab = []byte{}
	}
	return slab, nil
}

// hashSubtree fills the internal nodes of the subtree rooted at heap node
// root, which spans span leaves (a power of two), bottom-up. The nodes of
// the level holding w of them are exactly [root*w, (root+1)*w) in heap
// layout, consecutive arena rows, so a level is hashed in runs of
// shortsha.Lanes nodes. The leaves below must already be in place.
func (t *Tree) hashSubtree(nh *nodeHasher, root, span int) {
	size := t.hs.fixedLen
	var run nodeRun
	for w := span / 2; w >= 1; w /= 2 {
		for q, hi := root*w, (root+1)*w; q < hi; q += shortsha.Lanes {
			end := min(q+shortsha.Lanes, hi)
			for i := q; i < end; i++ {
				run.add(t.node(2*i), t.node(2*i+1))
			}
			nh.hashRun(t.arena[q*size:end*size], &run)
		}
	}
}

// newNodeArena allocates the contiguous slab backing all internal-node
// digests of a capacity-leaf tree; nil for the degenerate one-leaf tree,
// which has no internal nodes.
func newNodeArena(hs hashers, capacity int) []byte {
	if capacity < 2 {
		return nil
	}
	return make([]byte, capacity*hs.fixedLen)
}

// parallelMinLeaves is the tree size below which goroutine startup costs
// more than it saves; smaller trees always build sequentially.
const parallelMinLeaves = 1 << 10

// buildWorkers resolves the effective worker count for a tree of the given
// padded capacity.
func buildWorkers(requested, capacity int) int {
	if requested <= 1 || capacity < parallelMinLeaves {
		return 1
	}
	if cpus := runtime.NumCPU(); requested > cpus {
		requested = cpus
	}
	// Never more shards than half the leaves, so every shard owns a whole
	// subtree of at least two leaves.
	if max := capacity / 2; requested > max {
		requested = max
	}
	return requested
}

// fillParallel builds the tree with a pool of workers. The leaf span is cut
// into shards equal-sized subtrees. First every shard's leaves are evaluated
// into a slab of its own, since no shard knows where its values start before
// its predecessors are done; the shard slabs are then joined into the tree's
// one slab and the offsets rebased, and every shard's subtree is hashed
// bottom-up, fully independently. The top log2(shards) levels are combined
// sequentially — shards-1 nodes, a negligible tail. The node values are
// bit-identical to the sequential schedule because the tree structure,
// padding, and hash inputs are unchanged.
func (t *Tree) fillParallel(run LeafRun, workers int) error {
	shards := nextPow2(workers)
	if shards > t.cap/2 {
		shards = t.cap / 2
	}
	span := t.cap / shards // leaves per shard; a power of two >= 2
	// realLeaves bounds the part of shard s below n; empty for a shard that
	// is all padding.
	realLeaves := func(s int) (lo, hi int) { return min(s*span, t.n), min((s+1)*span, t.n) }

	// forShards runs do over every shard on the worker pool. Workers write
	// disjoint state (their shards' offsets, slabs and arena rows), so no
	// synchronization is needed beyond the WaitGroup.
	forShards := func(do func(s int)) {
		next := make(chan int, shards)
		for s := 0; s < shards; s++ {
			next <- s
		}
		close(next)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for s := range next {
					do(s)
				}
			}()
		}
		wg.Wait()
	}

	slabs := make([][]byte, shards)
	errs := make([]error, shards)
	var failed atomic.Bool
	forShards(func(s int) {
		lo, hi := realLeaves(s)
		slabs[s], errs[s] = t.fillLeaves(nil, lo, hi, run, make([]int, shortsha.Lanes), &failed)
		if errs[s] != nil {
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	total := 0
	for _, slab := range slabs {
		if err := checkSlab(total, len(slab)); err != nil {
			return err
		}
		total += len(slab)
	}
	t.slab = make([]byte, 0, total)
	for s, slab := range slabs {
		base := uint32(len(t.slab))
		lo, hi := realLeaves(s)
		for i := lo; i < hi; i++ {
			t.offs[i+1] += base
		}
		t.slab = append(t.slab, slab...)
	}

	forShards(func(s int) {
		t.hashSubtree(t.hs.node(), shards+s, span)
	})
	// Shard roots occupy [shards, 2*shards); finish the top of the heap.
	t.hashSubtree(t.nh, 1, shards)
	return nil
}

// N reports the number of real (unpadded) leaves.
func (t *Tree) N() int { return t.n }

// Height reports the number of edges on the path from a leaf to the root;
// it equals the number of sibling hashes in every proof.
func (t *Tree) Height() int { return log2(t.cap) }

// Root returns Φ(R), the commitment the participant sends to the supervisor.
// The returned slice is a copy and safe to retain. For the degenerate
// single-leaf tree the root is the leaf value itself, exactly as Eq. (1)
// degenerates for n = 1.
func (t *Tree) Root() []byte {
	return t.AppendRoot(make([]byte, 0, len(t.node(1))))
}

// AppendRoot appends Φ(R) to dst: Root into storage the caller keeps across
// rebuilds.
func (t *Tree) AppendRoot(dst []byte) []byte {
	return append(dst, t.node(1)...)
}

// Leaf returns the value stored at leaf index i. The slice aliases the
// tree's leaf slab and must not be modified.
func (t *Tree) Leaf(i int) ([]byte, error) {
	if i < 0 || i >= t.n {
		return nil, fmt.Errorf("%w: %d not in [0, %d)", ErrIndexOutOfRange, i, t.n)
	}
	return t.node(t.cap + i), nil
}

// Prove produces the audit path for leaf i: the leaf value plus the Φ values
// of the sibling of every node on the path from the leaf to the root
// (Step 3, Section 3.1 of the paper).
func (t *Tree) Prove(i int) (*Proof, error) {
	if i < 0 || i >= t.n {
		return nil, fmt.Errorf("%w: %d not in [0, %d)", ErrIndexOutOfRange, i, t.n)
	}
	// The sibling digests alias the tree's immutable nodes; the leaf value
	// is a copy.
	siblings := make([][]byte, 0, t.Height())
	for pos := t.cap + i; pos > 1; pos /= 2 {
		siblings = append(siblings, t.node(pos^1))
	}
	return &Proof{Index: i, N: t.n, Value: cloneBytes(t.node(t.cap + i)), Siblings: siblings}, nil
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// log2 returns the base-2 logarithm of a power of two.
func log2(p int) int {
	l := 0
	for p > 1 {
		p /= 2
		l++
	}
	return l
}
