package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

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

// Response is the Step 3 message: one Merkle multiproof covering every
// challenged sample — the claimed f(x) of each distinct index and, once each,
// the sibling Φ values the supervisor cannot compute from the samples
// themselves. There is no per-sample form: a single-sample response is the
// multiproof whose siblings are that sample's audit path.
type Response struct {
	// Proof proves the distinct challenged indices, sorted.
	Proof merkle.MultiProof
}

// MarshalBinary encodes the commitment as
// uvarint(len(root)) || root || uvarint(n).
func (c Commitment) MarshalBinary() ([]byte, error) {
	if len(c.Root) == 0 {
		return nil, fmt.Errorf("%w: empty commitment root", ErrProtocol)
	}
	buf := make([]byte, 0, c.EncodedSize())
	buf = binary.AppendUvarint(buf, uint64(len(c.Root)))
	buf = append(buf, c.Root...)
	return binary.AppendUvarint(buf, c.N), nil
}

// UnmarshalBinary decodes a commitment produced by MarshalBinary. The
// commitment keeps no reference to data.
func (c *Commitment) UnmarshalBinary(data []byte) error { return c.UnmarshalInto(nil, data) }

// UnmarshalInto is UnmarshalBinary into the caller's storage: the root is
// copied into dst's backing array, grown only when too small, and c.Root
// aliases it — a decoder that keeps one buffer across messages allocates
// nothing.
func (c *Commitment) UnmarshalInto(dst, data []byte) error {
	size, rest, err := takeUvarint(data, "root length")
	if err != nil {
		return err
	}
	if size > uint64(len(rest)) {
		return fmt.Errorf("%w: root declares %d bytes, %d remain", ErrProtocol, size, len(rest))
	}
	if size == 0 {
		return fmt.Errorf("%w: empty commitment root", ErrProtocol)
	}
	root, rest := rest[:size], rest[size:]
	n, rest, err := takeUvarint(rest, "commitment n")
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(rest))
	}
	c.Root = append(dst[:0], root...)
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
	buf := make([]byte, 0, ch.EncodedSize())
	buf = binary.AppendUvarint(buf, uint64(len(ch.Indices)))
	for _, idx := range ch.Indices {
		buf = binary.AppendUvarint(buf, idx)
	}
	return buf, nil
}

// UnmarshalBinary decodes a challenge produced by MarshalBinary.
func (ch *Challenge) UnmarshalBinary(data []byte) error { return ch.UnmarshalInto(nil, data) }

// UnmarshalInto is UnmarshalBinary into the caller's storage: the indices
// land in dst's backing array, grown only when too small, and ch.Indices
// aliases it. On error ch is left as it was; dst's contents may not be.
func (ch *Challenge) UnmarshalInto(dst []uint64, data []byte) error {
	m, rest, err := takeUvarint(data, "challenge count")
	if err != nil {
		return err
	}
	const maxSamples = 1 << 20 // far above any useful m
	if m == 0 || m > maxSamples {
		return fmt.Errorf("%w: challenge count %d outside [1, %d]", ErrProtocol, m, maxSamples)
	}
	if m > uint64(len(rest)) {
		// An index occupies at least one byte; checked before the slice is
		// sized so a bare count cannot buy an allocation.
		return fmt.Errorf("%w: challenge declares %d indices, %d bytes remain", ErrProtocol, m, len(rest))
	}
	indices := slices.Grow(dst[:0], int(m))[:m]
	for k := range indices {
		if indices[k], rest, err = takeUvarint(rest, "challenge index"); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(rest))
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

// MarshalBinary encodes the response: it is the multiproof's encoding (see
// merkle.MultiProof.MarshalBinary), in one buffer sized by EncodedSize.
func (resp *Response) MarshalBinary() ([]byte, error) {
	if resp == nil {
		return nil, fmt.Errorf("%w: nil response", ErrProtocol)
	}
	buf, err := resp.Proof.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("%w: response: %v", ErrProtocol, err)
	}
	return buf, nil
}

// UnmarshalBinary decodes a response produced by MarshalBinary. The decoded
// proof keeps no reference to data: its values and digests alias one private
// copy of it. A sample or sibling count larger than the bytes that follow it
// is refused before anything is allocated. On error resp is left as it was.
func (resp *Response) UnmarshalBinary(data []byte) error {
	if err := resp.Proof.UnmarshalAliased(append([]byte(nil), data...)); err != nil {
		return fmt.Errorf("%w: response: %v", ErrProtocol, err)
	}
	return nil
}

// EncodedSize reports the exact MarshalBinary length. It is the quantity the
// communication-cost experiment measures: at most the O(m log n) of Section
// 3.1, less every sibling the m paths share.
func (resp *Response) EncodedSize() int {
	return resp.Proof.EncodedSize()
}

// takeUvarint splits a uvarint off the front of data; what names the field
// in the error.
func takeUvarint(data []byte, what string) (v uint64, rest []byte, err error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, data, fmt.Errorf("%w: %s: truncated or overlong varint", ErrProtocol, what)
	}
	return v, data[n:], nil
}

// uvarintLen reports how many bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}
