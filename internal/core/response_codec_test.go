package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"uncheatgrid/internal/merkle"
)

// The reference decoders below are the bytes.Reader implementations
// Response.UnmarshalBinary and merkle.Proof.UnmarshalBinary replaced: every
// field read through a reader and copied out. They stay here as the
// specification the slice-walking decoder is fuzzed against.

func referenceReadBytes(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("declared length %d exceeds remaining %d", n, r.Len())
	}
	out := make([]byte, n)
	if n == 0 {
		return out, nil
	}
	if _, err := r.Read(out); err != nil {
		return nil, err
	}
	return out, nil
}

// referenceUnmarshalProof decodes one proof; structural validation is the
// caller's (it needs merkle's unexported validateProof, reached through a
// marshal of the decoded value).
func referenceUnmarshalProof(data []byte) (*merkle.Proof, error) {
	r := bytes.NewReader(data)
	index, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	value, err := referenceReadBytes(r)
	if err != nil {
		return nil, err
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if count > 64 {
		return nil, fmt.Errorf("sibling count %d", count)
	}
	siblings := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		s, err := referenceReadBytes(r)
		if err != nil {
			return nil, err
		}
		siblings = append(siblings, s)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	proof := &merkle.Proof{Index: int(index), N: int(n), Value: value, Siblings: siblings}
	if _, err := proof.MarshalBinary(); err != nil {
		return nil, err // validateProof's verdict
	}
	return proof, nil
}

func referenceUnmarshalResponse(data []byte) (*Response, error) {
	r := bytes.NewReader(data)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: response count: %v", ErrProtocol, err)
	}
	if count == 0 || count > maxProofs {
		return nil, fmt.Errorf("%w: response count %d outside [1, %d]", ErrProtocol, count, maxProofs)
	}
	// The old decoder sized this slice from the bare count; the reference
	// grows it instead so a fuzzer's 2^20 costs nothing. Same verdicts.
	var proofs []*merkle.Proof
	for k := uint64(0); k < count; k++ {
		encoded, err := referenceReadBytes(r)
		if err != nil {
			return nil, fmt.Errorf("%w: proof %d: %v", ErrProtocol, k, err)
		}
		proof, err := referenceUnmarshalProof(encoded)
		if err != nil {
			return nil, fmt.Errorf("%w: proof %d: %v", ErrProtocol, k, err)
		}
		proofs = append(proofs, proof)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrProtocol, r.Len())
	}
	return &Response{Proofs: proofs}, nil
}

func sameResponse(a, b *Response) bool {
	if len(a.Proofs) != len(b.Proofs) {
		return false
	}
	for k, p := range a.Proofs {
		q := b.Proofs[k]
		if p.Index != q.Index || p.N != q.N || !bytes.Equal(p.Value, q.Value) || len(p.Siblings) != len(q.Siblings) {
			return false
		}
		if p.Value == nil || q.Value == nil {
			return false
		}
		for i := range p.Siblings {
			if !bytes.Equal(p.Siblings[i], q.Siblings[i]) {
				return false
			}
		}
	}
	return true
}

// encodedResponses returns real encoded responses: the benchmark's n=64/m=8
// shape, a single-sample one, a one-leaf domain (proofs without siblings)
// and a padded domain.
func encodedResponses(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, shape := range []struct {
		n       int
		indices []uint64
	}{
		{64, []uint64{3, 60, 17, 17, 0, 63, 31, 32}},
		{16, []uint64{5}},
		{1, []uint64{0, 0}},
		{37, []uint64{36, 0, 20}},
	} {
		f := testFunction(uint64(shape.n))
		p, err := NewProver(shape.n, func(i uint64) []byte { return f.Eval(i) })
		if err != nil {
			tb.Fatalf("NewProver: %v", err)
		}
		resp, err := p.Respond(shape.indices)
		if err != nil {
			tb.Fatalf("Respond: %v", err)
		}
		data, err := resp.MarshalBinary()
		if err != nil {
			tb.Fatalf("MarshalBinary: %v", err)
		}
		out = append(out, data)
	}
	return out
}

// checkResponseDecodersAgree decodes data with both decoders and fails on
// any difference in verdict, sentinel or decoded value.
func checkResponseDecodersAgree(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := referenceUnmarshalResponse(data)
	var got Response
	gotErr := got.UnmarshalBinary(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decoder err = %v, reference err = %v, on %x", gotErr, wantErr, data)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrProtocol) || !errors.Is(wantErr, ErrProtocol) {
			t.Fatalf("rejections must carry ErrProtocol: decoder %v, reference %v", gotErr, wantErr)
		}
		if got.Proofs != nil {
			t.Fatal("failed decode modified its receiver")
		}
		return
	}
	if !sameResponse(&got, want) {
		t.Fatalf("decoder and reference disagree on %x", data)
	}
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatalf("re-encode of decoded response: %v", err)
	}
	if len(again) != got.EncodedSize() {
		t.Fatalf("re-encoded %d bytes, EncodedSize says %d", len(again), got.EncodedSize())
	}
	var back Response
	if err := back.UnmarshalBinary(again); err != nil || !sameResponse(&back, &got) {
		t.Fatalf("encode∘decode changed the response (%v)", err)
	}
}

func FuzzResponseUnmarshal(f *testing.F) {
	for _, data := range encodedResponses(f) {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(append(append([]byte(nil), data...), 0))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})                                                 // zero proofs
	f.Add([]byte{0x80, 0x80, 0x40})                                     // 2^20 proofs, no bytes
	f.Add([]byte{0x81, 0x80, 0x40})                                     // one past maxProofs
	f.Add([]byte{0x02, 0x04, 0x00, 0x01, 0x00, 0x00})                   // second proof missing
	f.Add([]byte{0x01, 0x04, 0x00, 0x01, 0x00, 0x00})                   // n=1, empty value: valid
	f.Add([]byte{0x01, 0x05, 0x00, 0x01, 0x00, 0x00})                   // proof length past the end
	f.Add([]byte{0x01, 0x84, 0x00, 0x00, 0x01, 0x00, 0x00})             // non-canonical length varint
	f.Add([]byte{0x01, 0x07, 0x00, 0x02, 0x00, 0x01, 0x01, 0xaa, 0xbb}) // trailing byte inside the proof
	f.Fuzz(checkResponseDecodersAgree)
}

func TestResponseUnmarshalEveryTruncation(t *testing.T) {
	for _, data := range encodedResponses(t) {
		for cut := 0; cut < len(data); cut++ {
			var resp Response
			if err := resp.UnmarshalBinary(data[:cut]); !errors.Is(err, ErrProtocol) {
				t.Fatalf("truncation at %d of %d: err = %v, want ErrProtocol", cut, len(data), err)
			}
			checkResponseDecodersAgree(t, data[:cut])
		}
		checkResponseDecodersAgree(t, data)
	}
}

func TestResponseUnmarshalKeepsNoReferenceToInput(t *testing.T) {
	for _, data := range encodedResponses(t) {
		var resp Response
		if err := resp.UnmarshalBinary(data); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		want, err := referenceUnmarshalResponse(data)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for i := range data {
			data[i] ^= 0xff
		}
		if !sameResponse(&resp, want) {
			t.Fatal("mutating the input after UnmarshalBinary changed the decoded response")
		}
		// Proofs share slabs; none may be able to grow into its neighbour.
		for k, p := range resp.Proofs {
			if cap(p.Siblings) != len(p.Siblings) || cap(p.Value) != len(p.Value) {
				t.Fatalf("proof %d can grow into storage it shares", k)
			}
		}
	}
}

// TestResponseOfUnevenProofsDecodes covers the sibling slab's growth path:
// UnmarshalBinary sizes it from the first proof's depth, and nothing on the
// wire forces later proofs to agree with the first.
func TestResponseOfUnevenProofsDecodes(t *testing.T) {
	shallow := &merkle.Proof{Index: 0, N: 1, Value: []byte{1}}
	deep := func(v byte) *merkle.Proof {
		return &merkle.Proof{Index: 1, N: 8, Value: []byte{v}, Siblings: [][]byte{{v, 1}, {v, 2}, {v, 3}}}
	}
	resp := &Response{Proofs: []*merkle.Proof{shallow, deep(7), deep(8), shallow, deep(9)}}
	data, err := resp.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var decoded Response
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if !sameResponse(&decoded, resp) {
		t.Fatal("uneven response did not round-trip")
	}
	checkResponseDecodersAgree(t, data)
}

// TestVerifierConcurrentVerify runs one Verifier from several goroutines:
// the per-task hash state is taken out of its slot for a call, and callers
// that find it taken set up their own.
func TestVerifierConcurrentVerify(t *testing.T) {
	f := testFunction(11)
	p := honestProver(t, f, 64)
	v := seededVerifier(t, p.Commitment(), 5)
	ch, err := v.Challenge(8)
	if err != nil {
		t.Fatalf("Challenge: %v", err)
	}
	resp, err := p.Respond(ch.Indices)
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}
	forged := &Response{Proofs: append([]*merkle.Proof(nil), resp.Proofs...)}
	bad := *forged.Proofs[3]
	bad.Siblings = append([][]byte(nil), bad.Siblings...)
	bad.Siblings[0] = bytes.Repeat([]byte{0xee}, len(bad.Siblings[0]))
	forged.Proofs[3] = &bad

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := v.Verify(ch, resp, recompute(f)); err != nil {
					t.Errorf("honest response rejected: %v", err)
					return
				}
				if err := v.Verify(ch, forged, recompute(f)); !errors.Is(err, ErrCommitmentMismatch) {
					t.Errorf("forged response: err = %v, want ErrCommitmentMismatch", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
