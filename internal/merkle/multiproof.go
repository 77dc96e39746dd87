package merkle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// MultiProof is the participant's evidence for a whole set of samples drawn
// from one tree: the claimed f(x) of every distinct sample plus each sibling
// Φ value the supervisor cannot compute from the samples themselves. The m
// audit paths of Step 3 (Section 3.1) meet on their way to the root, and
// wherever two meet one's sibling is the other's path node: those digests are
// left out, and every remaining one is sent once. For a single sample the
// multiproof is the audit path — the H siblings of Proof, bottom-up.
type MultiProof struct {
	// N is the number of real leaves in the tree the proof was drawn from.
	N int
	// Indices are the zero-based leaf indices of the samples, strictly
	// increasing: a sample challenged twice is proven once.
	Indices []uint64
	// Values holds the claimed leaf values, Values[i] for leaf Indices[i].
	Values [][]byte
	// Siblings holds, level by level from the leaves up and left to right
	// within a level, the Φ value of the sibling of every node on a sampled
	// path whose sibling is not itself on one.
	Siblings [][]byte
}

// stackSamples is the sample count up to which a level walk keeps its
// positions on the stack; a larger proof costs the walk one allocation.
const stackSamples = 64

// multiWalk is the level walk behind every multiproof: it climbs the sorted,
// distinct leaf indices of a tree padded to leafBase leaves towards the root
// together and calls visit, in proof order, with the heap position (the root
// is 1, node i's children 2i and 2i+1) of each sibling the proof must carry.
// Two adjacent path nodes are each other's sibling and visit nothing.
func multiWalk(leafBase uint64, indices []uint64, visit func(sibling uint64)) {
	var stack [stackSamples]uint64
	pos := stack[:0]
	if len(indices) > len(stack) {
		pos = make([]uint64, 0, len(indices))
	}
	for _, idx := range indices {
		pos = append(pos, leafBase+idx)
	}
	// Every position sits on the same level, so all reach the root at once.
	for len(pos) > 0 && pos[0] > 1 {
		out := 0
		for i := 0; i < len(pos); i++ {
			at := pos[i]
			if at&1 == 0 && i+1 < len(pos) && pos[i+1] == at+1 {
				i++
			} else {
				visit(at ^ 1)
			}
			pos[out] = at / 2
			out++
		}
		pos = pos[:out]
	}
}

// ProofScratch is the storage a multiproof is built or decoded into — its
// index list, the header slab Values and Siblings share, and, for a built
// proof, the slab the sampled values are copied into — owned by the caller
// so one scratch serves proof after proof. The zero value is ready; each use
// keeps what it finds large enough and replaces the rest. A proof filled
// from a scratch aliases it and dies with the scratch's next use.
type ProofScratch struct {
	indices []uint64
	headers [][]byte
	values  []byte
}

// proof returns an n-leaf multiproof over the first k entries of s.indices
// whose Values and Siblings are s's header slab regrown to k+siblings nil
// entries.
func (s *ProofScratch) proof(n, k, siblings int) MultiProof {
	s.headers = slices.Grow(s.headers[:0], k+siblings)[:k+siblings]
	clear(s.headers)
	return MultiProof{N: n, Indices: s.indices[:k], Values: s.headers[:k:k], Siblings: s.headers[k:]}
}

// newMultiProof starts, in s, the multiproof of the challenged leaves of an
// n-leaf tree padded to capacity: Indices holds them sorted with repeats
// dropped, and Values and Siblings are sized — one header slab between them —
// for the tree to fill in.
func newMultiProof(s *ProofScratch, n, capacity int, challenged []uint64) (MultiProof, error) {
	for _, idx := range challenged {
		if idx >= uint64(n) {
			return MultiProof{}, fmt.Errorf("%w: %d not in [0, %d)", ErrIndexOutOfRange, idx, n)
		}
	}
	s.indices = append(s.indices[:0], challenged...)
	slices.Sort(s.indices)
	s.indices = slices.Compact(s.indices)
	siblings := 0
	multiWalk(uint64(capacity), s.indices, func(uint64) { siblings++ })
	return s.proof(n, len(s.indices), siblings), nil
}

// ProveMulti produces the multiproof for the challenged leaves, which may
// repeat and come in any order (Step 3, Section 3.1). The sibling digests
// alias the tree's nodes, which the next Rebuild overwrites; the leaf values
// are copied into one slab.
func (t *Tree) ProveMulti(challenged []uint64) (MultiProof, error) {
	return t.ProveMultiInto(new(ProofScratch), challenged)
}

// ProveMultiInto is ProveMulti built in s: the proof's index list, headers
// and value slab are s's, so a scratch that has served a proof this size
// makes the next one allocate nothing.
func (t *Tree) ProveMultiInto(s *ProofScratch, challenged []uint64) (MultiProof, error) {
	mp, err := newMultiProof(s, t.n, t.cap, challenged)
	if err != nil {
		return MultiProof{}, err
	}
	valueBytes := 0
	for _, idx := range mp.Indices {
		valueBytes += len(t.node(t.cap + int(idx)))
	}
	// Never a nil slab: an empty leaf's value is empty, not nil.
	if s.values == nil || cap(s.values) < valueBytes {
		s.values = make([]byte, 0, valueBytes)
	}
	values := s.values[:0]
	for i, idx := range mp.Indices {
		start := len(values)
		values = append(values, t.node(t.cap+int(idx))...)
		mp.Values[i] = values[start:len(values):len(values)]
	}
	next := 0
	multiWalk(uint64(t.cap), mp.Indices, func(sibling uint64) {
		mp.Siblings[next] = t.node(int(sibling))
		next++
	})
	return mp, nil
}

// ProveMulti produces the multiproof for the challenged leaves, byte-identical
// to the one a full Tree would produce. It rebuilds one subtree per
// challenged sample, repeats and samples sharing a subtree included — the
// m·2^ℓ recomputations Section 3.3 charges — and reads everything above from
// the stored top levels.
func (p *PartialTree) ProveMulti(challenged []uint64) (MultiProof, error) {
	mp, err := newMultiProof(new(ProofScratch), p.n, p.cap, challenged)
	if err != nil {
		return MultiProof{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	// need lists the siblings' heap positions in proof order. The stored
	// levels occupy the positions below len(p.top) and are final at once;
	// the rest wait for their subtree's rebuild.
	need := make([]uint64, 0, len(mp.Siblings))
	multiWalk(uint64(p.cap), mp.Indices, func(sibling uint64) {
		if sibling < uint64(len(p.top)) {
			mp.Siblings[len(need)] = cloneBytes(p.top[sibling])
		}
		need = append(need, sibling)
	})
	numBlocks := len(p.top) / 2
	rootDepth := log2(numBlocks) // of the rebuilt subtrees' roots
	if p.ell == 0 {
		for i, idx := range mp.Indices {
			mp.Values[i] = cloneBytes(p.top[numBlocks+int(idx)])
		}
		return mp, nil
	}
	for _, idx := range challenged {
		block := int(idx) / p.blockSize
		sub, err := p.fillSubtree(block, true)
		if err != nil {
			return MultiProof{}, err
		}
		for i, idx := range mp.Indices {
			if int(idx)/p.blockSize == block && mp.Values[i] == nil {
				mp.Values[i] = cloneBytes(sub[p.blockSize+int(idx)%p.blockSize])
			}
		}
		for j, sibling := range need {
			if mp.Siblings[j] != nil {
				continue
			}
			// depth counts the levels between the node and its subtree's
			// root, which sits at heap position root.
			depth := bits.Len64(sibling) - 1 - rootDepth
			if root := sibling >> depth; root == uint64(numBlocks+block) {
				mp.Siblings[j] = cloneBytes(sub[sibling-(root-1)<<depth])
			}
		}
	}
	return mp, nil
}

// checkShape validates everything about the proof but its sibling count:
// the leaf count, the index order and range, one non-nil value per index,
// no nil sibling.
func (p *MultiProof) checkShape() error {
	if p == nil {
		return fmt.Errorf("%w: nil proof", ErrMalformedProof)
	}
	if p.N <= 0 || p.N > maxProofLeaves {
		return fmt.Errorf("%w: leaf count %d not in [1, %d]", ErrMalformedProof, p.N, maxProofLeaves)
	}
	if len(p.Indices) == 0 {
		return fmt.Errorf("%w: no samples", ErrMalformedProof)
	}
	if len(p.Values) != len(p.Indices) {
		return fmt.Errorf("%w: %d values for %d samples", ErrMalformedProof, len(p.Values), len(p.Indices))
	}
	for i, idx := range p.Indices {
		if i > 0 && idx <= p.Indices[i-1] {
			return fmt.Errorf("%w: sample indices not strictly increasing at %d", ErrMalformedProof, i)
		}
		if p.Values[i] == nil {
			return fmt.Errorf("%w: nil value for sample %d", ErrMalformedProof, idx)
		}
	}
	if last := p.Indices[len(p.Indices)-1]; last >= uint64(p.N) {
		return fmt.Errorf("%w: index %d not in [0, %d)", ErrMalformedProof, last, p.N)
	}
	for i, s := range p.Siblings {
		if s == nil {
			return fmt.Errorf("%w: nil sibling %d", ErrMalformedProof, i)
		}
	}
	return nil
}

// validate is checkShape plus the sibling count the indices imply.
func (p *MultiProof) validate() error {
	if err := p.checkShape(); err != nil {
		return err
	}
	want := 0
	multiWalk(uint64(nextPow2(p.N)), p.Indices, func(uint64) { want++ })
	if len(p.Siblings) != want {
		return fmt.Errorf("%w: %d siblings, want %d for these samples of n=%d",
			ErrMalformedProof, len(p.Siblings), want, p.N)
	}
	return nil
}

// Value returns the claimed value of leaf index, and whether the proof
// covers that leaf.
func (p *MultiProof) Value(index uint64) ([]byte, bool) {
	i, ok := slices.BinarySearch(p.Indices, index)
	if !ok || i >= len(p.Values) {
		return nil, false
	}
	return p.Values[i], true
}

// rootMulti reconstructs the root the multiproof implies, climbing all
// samples together: on each level a node's sibling is its neighbour in the
// climb when that is on a sampled path too, and the next unused entry of
// p.Siblings otherwise. A sibling list that runs out early or is not used up
// is malformed. The result aliases the verifier's scratch (or p.Values[0],
// for a one-leaf tree) and is valid until the next call.
func (v *ProofVerifier) rootMulti(p *MultiProof) ([]byte, error) {
	if v.nh.hs.fixedLen == 0 {
		return nil, ErrHasherSize
	}
	if err := p.checkShape(); err != nil {
		return nil, err
	}
	k := len(p.Indices)
	var posStack [stackSamples]uint64
	var nodeStack [stackSamples][]byte
	pos, nodes := posStack[:0], nodeStack[:0]
	if k > stackSamples {
		pos, nodes = make([]uint64, 0, k), make([][]byte, 0, k)
	}
	leafBase := uint64(nextPow2(p.N))
	for i, idx := range p.Indices {
		pos = append(pos, leafBase+idx)
		nodes = append(nodes, p.Values[i])
	}
	// The climb's i-th digest lives in the i-th row of the scratch. A level
	// is hashed in runs of shortsha.Lanes nodes, and a run's outputs
	// [first, out) are written once all its nodes are named: a node's
	// inputs sit at or past its output's index, so a run's rows alias only
	// its own nodes' children (hashRun lays those out before it writes) and
	// never a later run's.
	size := v.nh.hs.fixedLen
	rows := v.rows(k)
	siblings := p.Siblings
	var run nodeRun
	for pos[0] > 1 {
		first, out := 0, 0
		for i := 0; i < len(pos); i++ {
			at, left, right := pos[i], nodes[i], []byte(nil)
			switch {
			case at&1 == 0 && i+1 < len(pos) && pos[i+1] == at+1:
				i++
				right = nodes[i]
			case len(siblings) == 0:
				return nil, fmt.Errorf("%w: sibling list ends below the root", ErrMalformedProof)
			case at&1 == 0:
				right, siblings = siblings[0], siblings[1:]
			default:
				left, right, siblings = siblings[0], left, siblings[1:]
			}
			run.add(left, right)
			pos[out] = at / 2
			out++
			if run.full() || i+1 == len(pos) {
				v.nh.hashRun(rows[first*size:out*size], &run)
				for ; first < out; first++ {
					nodes[first] = rows[first*size : (first+1)*size : (first+1)*size]
				}
			}
		}
		pos, nodes = pos[:out], nodes[:out]
	}
	if len(siblings) != 0 {
		return nil, fmt.Errorf("%w: %d surplus siblings", ErrMalformedProof, len(siblings))
	}
	return nodes[0], nil
}

// VerifyMulti checks the multiproof against the committed root. It returns
// nil when every claimed value is consistent with the commitment,
// ErrRootMismatch when some value or sibling is not the committed one (a
// caught cheat — the proof convicts as a whole, it cannot say which sample),
// ErrMalformedProof for structurally invalid proofs, a short, surplus or
// misordered sibling or index list included, and ErrHasherSize when v was
// set up with a hasher whose Sum length disagrees with its Size().
func (v *ProofVerifier) VerifyMulti(root []byte, p *MultiProof) error {
	got, err := v.rootMulti(p)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, root) {
		return ErrRootMismatch
	}
	return nil
}

// MarshalBinary encodes the proof as
//
//	uvarint(n) || uvarint(k) || uvarint(s) ||
//	uvarint(index_0) || uvarint(index_i - index_{i-1} - 1)* ||
//	(uvarint(len(value)) || value)^k || (uvarint(len(sibling)) || sibling)^s
//
// for k samples and s siblings. The index gaps are stored less one, so every
// encodable list is strictly increasing.
func (p *MultiProof) MarshalBinary() ([]byte, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p.appendTo(make([]byte, 0, p.EncodedSize())), nil
}

// AppendBinary appends the MarshalBinary encoding to dst.
func (p *MultiProof) AppendBinary(dst []byte) ([]byte, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p.appendTo(dst), nil
}

func (p *MultiProof) appendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.N))
	dst = binary.AppendUvarint(dst, uint64(len(p.Indices)))
	dst = binary.AppendUvarint(dst, uint64(len(p.Siblings)))
	for i, idx := range p.Indices {
		if i > 0 {
			idx -= p.Indices[i-1] + 1
		}
		dst = binary.AppendUvarint(dst, idx)
	}
	for _, field := range p.Values {
		dst = binary.AppendUvarint(dst, uint64(len(field)))
		dst = append(dst, field...)
	}
	for _, field := range p.Siblings {
		dst = binary.AppendUvarint(dst, uint64(len(field)))
		dst = append(dst, field...)
	}
	return dst
}

// EncodedSize reports the exact number of bytes MarshalBinary will produce.
// The grid layer uses it for communication accounting without re-encoding.
func (p *MultiProof) EncodedSize() int {
	size := uvarintLen(uint64(p.N)) + uvarintLen(uint64(len(p.Indices))) + uvarintLen(uint64(len(p.Siblings)))
	for i, idx := range p.Indices {
		if i > 0 {
			idx -= p.Indices[i-1] + 1
		}
		size += uvarintLen(idx)
	}
	for _, field := range p.Values {
		size += uvarintLen(uint64(len(field))) + len(field)
	}
	for _, field := range p.Siblings {
		size += uvarintLen(uint64(len(field))) + len(field)
	}
	return size
}

// UnmarshalBinary decodes a proof produced by MarshalBinary. The proof keeps
// no reference to data.
func (p *MultiProof) UnmarshalBinary(data []byte) error {
	return p.UnmarshalAliased(cloneBytes(data))
}

// UnmarshalAliased decodes like UnmarshalBinary without copying: every value
// and sibling aliases data, which the caller must leave unmodified for the
// proof's lifetime. It allocates the index list and one header slab, both
// only after the counts that size them were checked against the bytes that
// remain. On error p is left as it was.
func (p *MultiProof) UnmarshalAliased(data []byte) error {
	return p.UnmarshalAliasedInto(new(ProofScratch), data)
}

// UnmarshalAliasedInto is UnmarshalAliased with the index list and the header
// slab taken from s, which the proof then aliases as it aliases data: a
// scratch that has held a proof this size decodes the next one without
// allocating. s is overwritten whether or not the decode succeeds.
func (p *MultiProof) UnmarshalAliasedInto(s *ProofScratch, data []byte) error {
	n, rest, err := takeUvarint(data)
	if err != nil {
		return fmt.Errorf("%w: leaf count: %v", ErrMalformedProof, err)
	}
	if n == 0 || n > maxProofLeaves {
		return fmt.Errorf("%w: leaf count %d not in [1, %d]", ErrMalformedProof, n, maxProofLeaves)
	}
	k, rest, err := takeUvarint(rest)
	if err != nil {
		return fmt.Errorf("%w: sample count: %v", ErrMalformedProof, err)
	}
	sibs, rest, err := takeUvarint(rest)
	if err != nil {
		return fmt.Errorf("%w: sibling count: %v", ErrMalformedProof, err)
	}
	// A sample occupies at least two bytes (its index and its value's
	// length), a sibling at least one.
	room := uint64(len(rest))
	if k == 0 || k > room/2 || sibs > room-2*k {
		return fmt.Errorf("%w: %d samples and %d siblings declared, %d bytes remain", ErrMalformedProof, k, sibs, room)
	}
	s.indices = slices.Grow(s.indices[:0], int(k))[:k]
	indices := s.indices
	for i := range indices {
		var gap uint64
		if gap, rest, err = takeUvarint(rest); err != nil {
			return fmt.Errorf("%w: index %d: %v", ErrMalformedProof, i, err)
		}
		// floor is the lowest index the entry may name: one past its
		// predecessor, so floor <= n.
		var floor uint64
		if i > 0 {
			floor = indices[i-1] + 1
		}
		if gap >= n-floor {
			return fmt.Errorf("%w: index %d not in [0, %d)", ErrMalformedProof, i, n)
		}
		indices[i] = floor + gap
	}
	decoded := s.proof(int(n), int(k), int(sibs))
	for i := range s.headers {
		if s.headers[i], rest, err = takeBytes(rest); err != nil {
			what, at := "value", i
			if uint64(i) >= k {
				what, at = "sibling", i-int(k)
			}
			return fmt.Errorf("%w: %s %d: %v", ErrMalformedProof, what, at, err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformedProof, len(rest))
	}
	if err := decoded.validate(); err != nil {
		return err
	}
	*p = decoded
	return nil
}
