package merkle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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
// it against the commitment (Step 4, Section 3.1). On the wire it is the
// one-sample MultiProof, which holds exactly these fields.
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

// multi returns p as the one-sample multiproof, aliasing its fields. A
// negative index wraps past every legal leaf count, so checkShape refuses it.
func (p *Proof) multi() MultiProof {
	return MultiProof{N: p.N, Indices: []uint64{uint64(p.Index)}, Values: [][]byte{p.Value}, Siblings: p.Siblings}
}

// ProofVerifier reconstructs roots from multiproofs with the hash state set
// up once — the hasher, its reusable node state, the scratch digests of the
// climb — instead of once per proof: a supervisor keeps one per task in
// flight and Resets it between tasks. A ProofVerifier is not safe for
// concurrent use.
type ProofVerifier struct {
	nh *nodeHasher
	// scratch holds the digests a climb rewrites level by level, one row per
	// sample. It is sized by the first climb that needs it.
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

// Verify checks one audit path against the committed root: nil when the
// proof is consistent with the commitment, ErrRootMismatch when the
// participant's claimed value was not the one committed (a caught cheat),
// and ErrMalformedProof for structurally invalid proofs. It is VerifyMulti
// of the one-sample multiproof; callers with many proofs under one
// commitment keep a ProofVerifier instead.
func Verify(root []byte, p *Proof, opts ...Option) error {
	if p == nil {
		return fmt.Errorf("%w: nil proof", ErrMalformedProof)
	}
	mp := p.multi()
	return NewProofVerifier(opts...).VerifyMulti(root, &mp)
}

// maxProofLeaves is the largest leaf count a proof may claim: the largest
// whose padded capacity, the next power of two, still fits an int.
const maxProofLeaves = 1 << 62

// EncodedSize reports the number of bytes the proof takes on the wire, as
// the one-sample multiproof that carries it.
func (p *Proof) EncodedSize() int {
	mp := p.multi()
	return mp.EncodedSize()
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
