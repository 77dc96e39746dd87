package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"uncheatgrid/internal/merkle"
)

// Commitment is the Step 1 message: the Merkle root Φ(R) over all n results
// plus the domain size the participant claims to have computed.
type Commitment struct {
	// Root is Φ(R).
	Root []byte
	// N is the number of leaves (the participant's |D|).
	N uint64
}

// Challenge is the Step 2 message: the supervisor's sample indices
// (zero-based positions within the participant's domain).
type Challenge struct {
	// Indices are drawn uniformly with replacement from [0, N).
	Indices []uint64
}

// Response is the Step 3 message: one audit-path proof per challenged
// sample, each carrying the claimed f(x) as its leaf value.
type Response struct {
	// Proofs are ordered to match the challenge indices.
	Proofs []*merkle.Proof
}

// MarshalBinary encodes the commitment as
// uvarint(len(root)) || root || uvarint(n).
func (c Commitment) MarshalBinary() ([]byte, error) {
	if len(c.Root) == 0 {
		return nil, fmt.Errorf("%w: empty commitment root", ErrProtocol)
	}
	var buf bytes.Buffer
	writeUvarint(&buf, uint64(len(c.Root)))
	buf.Write(c.Root)
	writeUvarint(&buf, c.N)
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a commitment produced by MarshalBinary.
func (c *Commitment) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	root, err := readLengthPrefixed(r, "root")
	if err != nil {
		return err
	}
	if len(root) == 0 {
		return fmt.Errorf("%w: empty commitment root", ErrProtocol)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("%w: commitment n: %v", ErrProtocol, err)
	}
	if err := expectEOF(r); err != nil {
		return err
	}
	c.Root = root
	c.N = n
	return nil
}

// EncodedSize reports the exact MarshalBinary length.
func (c Commitment) EncodedSize() int {
	return uvarintLen(uint64(len(c.Root))) + len(c.Root) + uvarintLen(c.N)
}

// MarshalBinary encodes the challenge as uvarint(m) || uvarint(index)*.
func (ch Challenge) MarshalBinary() ([]byte, error) {
	if len(ch.Indices) == 0 {
		return nil, fmt.Errorf("%w: empty challenge", ErrProtocol)
	}
	var buf bytes.Buffer
	writeUvarint(&buf, uint64(len(ch.Indices)))
	for _, idx := range ch.Indices {
		writeUvarint(&buf, idx)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a challenge produced by MarshalBinary.
func (ch *Challenge) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	m, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("%w: challenge count: %v", ErrProtocol, err)
	}
	const maxSamples = 1 << 20 // far above any useful m; bounds allocation
	if m == 0 || m > maxSamples {
		return fmt.Errorf("%w: challenge count %d outside [1, %d]", ErrProtocol, m, maxSamples)
	}
	indices := make([]uint64, m)
	for k := range indices {
		idx, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("%w: challenge index %d: %v", ErrProtocol, k, err)
		}
		indices[k] = idx
	}
	if err := expectEOF(r); err != nil {
		return err
	}
	ch.Indices = indices
	return nil
}

// EncodedSize reports the exact MarshalBinary length.
func (ch Challenge) EncodedSize() int {
	size := uvarintLen(uint64(len(ch.Indices)))
	for _, idx := range ch.Indices {
		size += uvarintLen(idx)
	}
	return size
}

// MarshalBinary encodes the response as uvarint(count) followed by each
// proof length-prefixed, into one buffer sized by EncodedSize.
func (resp *Response) MarshalBinary() ([]byte, error) {
	if resp == nil || len(resp.Proofs) == 0 {
		return nil, fmt.Errorf("%w: empty response", ErrProtocol)
	}
	for k, proof := range resp.Proofs {
		if proof == nil {
			return nil, fmt.Errorf("%w: nil proof %d", ErrProtocol, k)
		}
	}
	buf := make([]byte, 0, resp.EncodedSize())
	buf = binary.AppendUvarint(buf, uint64(len(resp.Proofs)))
	for k, proof := range resp.Proofs {
		buf = binary.AppendUvarint(buf, uint64(proof.EncodedSize()))
		var err error
		if buf, err = proof.AppendBinary(buf); err != nil {
			return nil, fmt.Errorf("core: marshal proof %d: %w", k, err)
		}
	}
	return buf, nil
}

// maxProofs bounds a decoded response's sample count: far above any useful
// m.
const maxProofs = 1 << 20

// UnmarshalBinary decodes a response produced by MarshalBinary. The decoded
// proofs keep no reference to data: their digests alias one private copy of
// it, and the proofs and their sibling headers are carved from slabs shared
// by the whole response.
func (resp *Response) UnmarshalBinary(data []byte) error {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("%w: response count: malformed varint", ErrProtocol)
	}
	if count == 0 || count > maxProofs {
		return fmt.Errorf("%w: response count %d outside [1, %d]", ErrProtocol, count, maxProofs)
	}
	if count > uint64(len(data)-n) {
		// Every proof occupies at least its length prefix; checked before
		// the slabs are sized so a bare count cannot buy an allocation.
		return fmt.Errorf("%w: response declares %d proofs, %d bytes remain", ErrProtocol, count, len(data)-n)
	}
	rest := append([]byte(nil), data[n:]...)
	proofs := make([]*merkle.Proof, count)
	slab := make([]merkle.Proof, count)
	var siblings [][]byte
	for k := range proofs {
		size, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("%w: proof %d length: malformed varint", ErrProtocol, k)
		}
		rest = rest[n:]
		if size > uint64(len(rest)) {
			return fmt.Errorf("%w: proof %d declares %d bytes, %d remain", ErrProtocol, k, size, len(rest))
		}
		var err error
		if siblings, err = slab[k].UnmarshalAliased(rest[:size:size], siblings); err != nil {
			return fmt.Errorf("%w: proof %d: %v", ErrProtocol, k, err)
		}
		rest = rest[size:]
		proofs[k] = &slab[k]
		if k == 0 && len(proofs) > 1 {
			// Proofs from one tree share a depth: size the sibling slab for
			// the rest from the first, never beyond one header per remaining
			// byte. A response that outgrows the guess just grows the slab.
			siblings = make([][]byte, 0, min(len(siblings)*(len(proofs)-1), len(rest)))
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(rest))
	}
	resp.Proofs = proofs
	return nil
}

// EncodedSize reports the exact MarshalBinary length. It is the quantity the
// communication-cost experiment measures: O(m log n) by Section 3.1.
func (resp *Response) EncodedSize() int {
	size := uvarintLen(uint64(len(resp.Proofs)))
	for _, proof := range resp.Proofs {
		ps := proof.EncodedSize()
		size += uvarintLen(uint64(ps)) + ps
	}
	return size
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

// uvarintLen reports how many bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

func readLengthPrefixed(r *bytes.Reader, what string) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %s length: %v", ErrProtocol, what, err)
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("%w: %s declares %d bytes, %d remain", ErrProtocol, what, n, r.Len())
	}
	out := make([]byte, n)
	if n == 0 {
		// bytes.Reader reports io.EOF for empty reads at the end of the
		// buffer; a zero-length field is valid wherever it appears.
		return out, nil
	}
	if _, err := r.Read(out); err != nil {
		return nil, fmt.Errorf("%w: %s payload: %v", ErrProtocol, what, err)
	}
	return out, nil
}

func expectEOF(r *bytes.Reader) error {
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, r.Len())
	}
	return nil
}
