package merkle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Proof verification errors. ErrRootMismatch is the signal that a participant
// is cheating (Theorem 2 of the paper); the malformed-proof errors indicate a
// protocol violation rather than a detected lie.
var (
	// ErrRootMismatch is returned when the root reconstructed from the proof
	// differs from the committed root.
	ErrRootMismatch = errors.New("merkle: reconstructed root does not match commitment")
	// ErrMalformedProof is returned when a proof is structurally invalid.
	ErrMalformedProof = errors.New("merkle: malformed proof")
)

// Proof is the participant's evidence for a single sample x: the claimed
// f(x) value plus the sibling Φ values λ1..λH along the path from the leaf to
// the root. The supervisor reconstructs Φ(R') = Λ(f(x), λ1..λH) and compares
// it against the commitment (Step 4, Section 3.1).
type Proof struct {
	// Index is the zero-based leaf index of the sample within the domain.
	Index int
	// N is the number of real leaves in the tree the proof was drawn from.
	N int
	// Value is the claimed leaf value, Φ(L) = f(x).
	Value []byte
	// Siblings holds the Φ values of the sibling of each node on the
	// leaf-to-root path, ordered bottom-up.
	Siblings [][]byte
}

// ProofVerifier reconstructs roots from audit paths and multiproofs with the
// hash state set up once — the hasher, its reusable node state, the scratch
// digests of the climb — instead of once per proof: a supervisor keeps one
// per task in flight and Resets it between tasks. A ProofVerifier is not
// safe for concurrent use.
type ProofVerifier struct {
	nh *nodeHasher
	// scratch holds the digests a climb rewrites level by level: one row for
	// an audit path, one per sample for a multiproof. It is sized by the
	// first climb that needs it and stays empty for variable-size hashers,
	// which allocate per node.
	scratch []byte
}

// NewProofVerifier prepares verification under the given tree options, which
// must match the ones the tree was built with.
func NewProofVerifier(opts ...Option) *ProofVerifier {
	v := new(ProofVerifier)
	v.Reset(opts...)
	return v
}

// Reset prepares v for verification under opts as NewProofVerifier prepares
// a fresh one, keeping the scratch and — from one default hash to the next —
// the hash state.
func (v *ProofVerifier) Reset(opts ...Option) {
	v.nh = nodeFor(v.nh, buildOptions(opts))
}

// rows returns scratch space for k digests.
func (v *ProofVerifier) rows(k int) []byte {
	if need := k * v.nh.hs.fixedLen; cap(v.scratch) < need {
		v.scratch = make([]byte, 0, need)
	}
	return v.scratch
}

// root computes Λ(Φ(L), λ1..λH) of Section 3.2. The result aliases the
// verifier's scratch digest (or p.Value, for a one-leaf tree) and is valid
// until the next call.
func (v *ProofVerifier) root(p *Proof) ([]byte, error) {
	if err := validateProof(p); err != nil {
		return nil, err
	}
	// combineInto absorbs its inputs before writing, so cur may alias the
	// scratch it is rewritten into.
	cur, row := p.Value, v.rows(1)
	pos := nextPow2(p.N) + p.Index
	for _, sib := range p.Siblings {
		if pos&1 == 0 {
			cur = v.nh.combineInto(row, cur, sib)
		} else {
			cur = v.nh.combineInto(row, sib, cur)
		}
		pos /= 2
	}
	return cur, nil
}

// Verify checks the proof against the committed root. It returns nil when
// the proof is consistent with the commitment, ErrRootMismatch when the
// participant's claimed value was not the one committed (a caught cheat),
// and ErrMalformedProof for structurally invalid proofs.
func (v *ProofVerifier) Verify(root []byte, p *Proof) error {
	got, err := v.root(p)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, root) {
		return ErrRootMismatch
	}
	return nil
}

// RootFromProof reconstructs the Merkle root implied by the proof. This is
// the Λ(Φ(L), λ1..λH) computation of Section 3.2.
func RootFromProof(p *Proof, opts ...Option) ([]byte, error) {
	root, err := NewProofVerifier(opts...).root(p)
	if err != nil {
		return nil, err
	}
	// Detach the result from the proof and the verifier's scratch.
	return cloneBytes(root), nil
}

// Verify checks one proof against the committed root; see
// ProofVerifier.Verify for the verdicts. Callers with many proofs under one
// commitment keep a ProofVerifier instead.
func Verify(root []byte, p *Proof, opts ...Option) error {
	return NewProofVerifier(opts...).Verify(root, p)
}

func validateProof(p *Proof) error {
	if p == nil {
		return fmt.Errorf("%w: nil proof", ErrMalformedProof)
	}
	if p.N <= 0 {
		return fmt.Errorf("%w: non-positive leaf count %d", ErrMalformedProof, p.N)
	}
	if p.N > maxProofLeaves {
		// Past this the padded capacity overflows int, and nextPow2 never
		// returns: a proof off the wire must be refused before it is asked.
		return fmt.Errorf("%w: leaf count %d exceeds %d", ErrMalformedProof, p.N, maxProofLeaves)
	}
	if p.Index < 0 || p.Index >= p.N {
		return fmt.Errorf("%w: index %d not in [0, %d)", ErrMalformedProof, p.Index, p.N)
	}
	if p.Value == nil {
		return fmt.Errorf("%w: nil leaf value", ErrMalformedProof)
	}
	if want := log2(nextPow2(p.N)); len(p.Siblings) != want {
		return fmt.Errorf("%w: %d siblings, want %d for n=%d",
			ErrMalformedProof, len(p.Siblings), want, p.N)
	}
	for i, s := range p.Siblings {
		if s == nil {
			return fmt.Errorf("%w: nil sibling at level %d", ErrMalformedProof, i)
		}
	}
	return nil
}

// MarshalBinary encodes the proof with a compact length-prefixed layout:
// uvarint(index) || uvarint(n) || uvarint(len(value)) || value ||
// uvarint(len(siblings)) || (uvarint(len(s)) || s)*.
func (p *Proof) MarshalBinary() ([]byte, error) {
	if err := validateProof(p); err != nil {
		return nil, err
	}
	return p.appendTo(make([]byte, 0, p.EncodedSize())), nil
}

// AppendBinary appends the MarshalBinary encoding to dst, so a message of
// many proofs is written into one buffer.
func (p *Proof) AppendBinary(dst []byte) ([]byte, error) {
	if err := validateProof(p); err != nil {
		return nil, err
	}
	return p.appendTo(dst), nil
}

func (p *Proof) appendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.Index))
	dst = binary.AppendUvarint(dst, uint64(p.N))
	dst = binary.AppendUvarint(dst, uint64(len(p.Value)))
	dst = append(dst, p.Value...)
	dst = binary.AppendUvarint(dst, uint64(len(p.Siblings)))
	for _, s := range p.Siblings {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// UnmarshalBinary decodes a proof produced by MarshalBinary. The proof keeps
// no reference to data.
func (p *Proof) UnmarshalBinary(data []byte) error {
	_, err := p.UnmarshalAliased(cloneBytes(data), nil)
	return err
}

// maxSiblings bounds a decoded proof's depth: a complete binary tree cannot
// be deeper on 64-bit indices.
const maxSiblings = 64

// maxProofLeaves is the largest leaf count a proof may claim: the largest
// whose padded capacity, the next power of two, still fits an int.
const maxProofLeaves = 1 << 62

// UnmarshalAliased decodes like UnmarshalBinary without copying: the value
// and every sibling alias data, which the caller must leave unmodified for
// the proof's lifetime. The sibling headers are appended to siblings and the
// grown slice is returned, so a decoder of many proofs threads one slab
// through all of them; on error p and siblings are left as they were.
func (p *Proof) UnmarshalAliased(data []byte, siblings [][]byte) ([][]byte, error) {
	index, rest, err := takeUvarint(data)
	if err != nil {
		return siblings, fmt.Errorf("%w: index: %v", ErrMalformedProof, err)
	}
	n, rest, err := takeUvarint(rest)
	if err != nil {
		return siblings, fmt.Errorf("%w: leaf count: %v", ErrMalformedProof, err)
	}
	value, rest, err := takeBytes(rest)
	if err != nil {
		return siblings, fmt.Errorf("%w: value: %v", ErrMalformedProof, err)
	}
	count, rest, err := takeUvarint(rest)
	if err != nil {
		return siblings, fmt.Errorf("%w: sibling count: %v", ErrMalformedProof, err)
	}
	if count > maxSiblings {
		return siblings, fmt.Errorf("%w: sibling count %d exceeds %d", ErrMalformedProof, count, maxSiblings)
	}
	start := len(siblings)
	siblings = slices.Grow(siblings, int(count))
	for i := uint64(0); i < count; i++ {
		var s []byte
		s, rest, err = takeBytes(rest)
		if err != nil {
			return siblings[:start], fmt.Errorf("%w: sibling %d: %v", ErrMalformedProof, i, err)
		}
		siblings = append(siblings, s)
	}
	if len(rest) != 0 {
		return siblings[:start], fmt.Errorf("%w: %d trailing bytes", ErrMalformedProof, len(rest))
	}
	decoded := Proof{
		Index:    int(index),
		N:        int(n),
		Value:    value,
		Siblings: siblings[start:len(siblings):len(siblings)],
	}
	if err := validateProof(&decoded); err != nil {
		return siblings[:start], err
	}
	*p = decoded
	return siblings, nil
}

// EncodedSize reports the exact number of bytes MarshalBinary will produce.
// The grid layer uses it for communication accounting without re-encoding.
func (p *Proof) EncodedSize() int {
	size := uvarintLen(uint64(p.Index)) + uvarintLen(uint64(p.N))
	size += uvarintLen(uint64(len(p.Value))) + len(p.Value)
	size += uvarintLen(uint64(len(p.Siblings)))
	for _, s := range p.Siblings {
		size += uvarintLen(uint64(len(s))) + len(s)
	}
	return size
}

// takeUvarint splits a uvarint off the front of data.
func takeUvarint(data []byte) (v uint64, rest []byte, err error) {
	v, n := binary.Uvarint(data)
	switch {
	case n == 0:
		return 0, data, errors.New("truncated varint")
	case n < 0:
		return 0, data, errors.New("varint overflows 64 bits")
	}
	return v, data[n:], nil
}

// takeBytes splits a length-prefixed field off the front of data. The field
// aliases data, capacity-bounded so it can never grow into its neighbour,
// and is non-nil even when empty: zero-length leaf values are legal.
func takeBytes(data []byte) (field, rest []byte, err error) {
	n, rest, err := takeUvarint(data)
	if err != nil {
		return nil, data, err
	}
	if n > uint64(len(rest)) {
		return nil, data, fmt.Errorf("declared length %d exceeds remaining %d", n, len(rest))
	}
	return rest[:n:n], rest[n:], nil
}

// uvarintLen reports how many bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}
