package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"uncheatgrid/internal/merkle"
)

// The reference decoder below reads a response the way the codecs in this
// repository did before they became slice walkers: every field through a
// bytes.Reader, copied out. It stays here as the specification
// Response.UnmarshalBinary is fuzzed against.

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

// referenceUnmarshalMultiProof decodes uvarint(n) || uvarint(k) ||
// uvarint(s) || the k indices (the first absolute, the rest as gaps less
// one) || k values || s siblings. The slices grow as fields arrive, so a
// fuzzer's absurd count costs nothing; structural validation is merkle's
// unexported validate, reached through a marshal of the decoded value.
func referenceUnmarshalMultiProof(data []byte) (*merkle.MultiProof, error) {
	r := bytes.NewReader(data)
	var header [3]uint64
	for i := range header {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		header[i] = v
	}
	n, k, s := header[0], header[1], header[2]
	if n == 0 || n > 1<<62 {
		return nil, fmt.Errorf("leaf count %d", n)
	}
	proof := &merkle.MultiProof{N: int(n), Values: [][]byte{}, Siblings: [][]byte{}}
	for i := uint64(0); i < k; i++ {
		gap, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		idx := gap
		if i > 0 {
			idx = proof.Indices[i-1] + 1 + gap
			if idx <= proof.Indices[i-1] {
				return nil, fmt.Errorf("index %d wraps", i)
			}
		}
		if idx >= n {
			return nil, fmt.Errorf("index %d outside the domain", idx)
		}
		proof.Indices = append(proof.Indices, idx)
	}
	for i := uint64(0); i < k; i++ {
		value, err := referenceReadBytes(r)
		if err != nil {
			return nil, err
		}
		proof.Values = append(proof.Values, value)
	}
	for i := uint64(0); i < s; i++ {
		sibling, err := referenceReadBytes(r)
		if err != nil {
			return nil, err
		}
		proof.Siblings = append(proof.Siblings, sibling)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	if _, err := proof.MarshalBinary(); err != nil {
		return nil, err // validate's verdict
	}
	return proof, nil
}

func referenceUnmarshalResponse(data []byte) (*Response, error) {
	proof, err := referenceUnmarshalMultiProof(data)
	if err != nil {
		return nil, fmt.Errorf("%w: response: %v", ErrProtocol, err)
	}
	return &Response{Proof: *proof}, nil
}

func sameResponse(a, b *Response) bool {
	same := func(x, y [][]byte) bool {
		return slices.EqualFunc(x, y, func(p, q []byte) bool { return p != nil && q != nil && bytes.Equal(p, q) })
	}
	p, q := &a.Proof, &b.Proof
	return p.N == q.N && slices.Equal(p.Indices, q.Indices) && same(p.Values, q.Values) && same(p.Siblings, q.Siblings)
}

// encodedResponses returns real encoded responses: the benchmark's n=64/m=8
// shape, a single-sample one (the multiproof is one audit path), a one-leaf
// domain (a proof without siblings) and a padded domain.
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
		if got.Proof.N != 0 || got.Proof.Indices != nil || got.Proof.Values != nil || got.Proof.Siblings != nil {
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
	f.Add([]byte{0x01, 0x01, 0x00, 0x00, 0x00})                               // n=1, one empty value: valid
	f.Add([]byte{0x01, 0x00, 0x00})                                           // zero samples
	f.Add([]byte{0x40, 0x80, 0x80, 0x40, 0x00, 0x00, 0x00})                   // 2^20 samples, no bytes for them
	f.Add([]byte{0x40, 0x01, 0x80, 0x80, 0x40, 0x00, 0x00})                   // 2^20 siblings, no bytes for them
	f.Add([]byte{0x02, 0x02, 0x00, 0x00, 0x00, 0x01, 0xaa})                   // second value missing
	f.Add([]byte{0x02, 0x02, 0x00, 0x00, 0x01, 0x00, 0x00})                   // gap leaves the domain
	f.Add([]byte{0x02, 0x01, 0x00, 0x01, 0x00})                               // sibling list short by one
	f.Add([]byte{0x02, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00})             // both leaves sampled, a surplus sibling
	f.Add([]byte{0x02, 0x81, 0x00, 0x01, 0x00, 0x00, 0x01, 0xbb})             // non-canonical count varint
	f.Add([]byte{0x02, 0x01, 0x01, 0x01, 0x01, 0xaa, 0x01, 0xbb, 0xcc})       // trailing byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // varint overflow
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
		// The fields share two slabs; none may be able to grow into its
		// neighbour.
		if cap(resp.Proof.Values) != len(resp.Proof.Values) {
			t.Fatal("values can grow into the sibling headers")
		}
		for _, field := range append(slices.Clone(resp.Proof.Values), resp.Proof.Siblings...) {
			if cap(field) != len(field) {
				t.Fatal("a decoded field can grow into the next")
			}
		}
	}
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
	forged := &Response{Proof: resp.Proof}
	forged.Proof.Siblings = slices.Clone(resp.Proof.Siblings)
	forged.Proof.Siblings[3] = bytes.Repeat([]byte{0xee}, len(forged.Proof.Siblings[3]))

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
