package merkle

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// referenceUnmarshalProof is the bytes.Reader decoder Proof.UnmarshalBinary
// replaced, kept as the specification the slice-walking decoder is fuzzed
// against: every field copied out, one read at a time.
func referenceUnmarshalProof(data []byte) (Proof, error) {
	r := bytes.NewReader(data)
	index, err := binary.ReadUvarint(r)
	if err != nil {
		return Proof{}, fmt.Errorf("%w: index: %v", ErrMalformedProof, err)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return Proof{}, fmt.Errorf("%w: leaf count: %v", ErrMalformedProof, err)
	}
	value, err := readBytes(r)
	if err != nil {
		return Proof{}, fmt.Errorf("%w: value: %v", ErrMalformedProof, err)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return Proof{}, fmt.Errorf("%w: sibling count: %v", ErrMalformedProof, err)
	}
	if count > maxSiblings {
		return Proof{}, fmt.Errorf("%w: sibling count %d exceeds %d", ErrMalformedProof, count, maxSiblings)
	}
	siblings := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		s, err := readBytes(r)
		if err != nil {
			return Proof{}, fmt.Errorf("%w: sibling %d: %v", ErrMalformedProof, i, err)
		}
		siblings = append(siblings, s)
	}
	if r.Len() != 0 {
		return Proof{}, fmt.Errorf("%w: %d trailing bytes", ErrMalformedProof, r.Len())
	}
	decoded := Proof{Index: int(index), N: int(n), Value: value, Siblings: siblings}
	if err := validateProof(&decoded); err != nil {
		return Proof{}, err
	}
	return decoded, nil
}

// sameProof compares two proofs field by field, by content.
func sameProof(a, b *Proof) bool {
	if a.Index != b.Index || a.N != b.N || !bytes.Equal(a.Value, b.Value) || len(a.Siblings) != len(b.Siblings) {
		return false
	}
	for i := range a.Siblings {
		if !bytes.Equal(a.Siblings[i], b.Siblings[i]) {
			return false
		}
	}
	return true
}

// raggedValues builds n leaves of differing lengths, empty ones included.
func raggedValues(n int) [][]byte {
	values := leafValues(n)
	for i := range values {
		values[i] = values[i][:(i*7)%33]
	}
	return values
}

// encodedProofs returns real encoded proofs across tree shapes: one leaf
// (no siblings), padded domains, variable-length and empty values.
func encodedProofs(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, values := range [][][]byte{leafValues(1), leafValues(2), raggedValues(5), leafValues(64), raggedValues(37)} {
		tree, err := Build(values)
		if err != nil {
			tb.Fatalf("Build: %v", err)
		}
		for _, i := range []int{0, len(values) / 2, len(values) - 1} {
			proof, err := tree.Prove(i)
			if err != nil {
				tb.Fatalf("Prove(%d): %v", i, err)
			}
			data, err := proof.MarshalBinary()
			if err != nil {
				tb.Fatalf("MarshalBinary: %v", err)
			}
			out = append(out, data)
		}
	}
	return out
}

// checkProofDecodersAgree decodes data with both decoders and fails on any
// difference in verdict, sentinel or decoded value.
func checkProofDecodersAgree(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := referenceUnmarshalProof(data)
	var got Proof
	gotErr := got.UnmarshalBinary(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decoder err = %v, reference err = %v, on %x", gotErr, wantErr, data)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrMalformedProof) || !errors.Is(wantErr, ErrMalformedProof) {
			t.Fatalf("rejections must carry ErrMalformedProof: decoder %v, reference %v", gotErr, wantErr)
		}
		if got.Value != nil || got.Siblings != nil || got.N != 0 {
			t.Fatalf("failed decode modified its receiver: %+v", got)
		}
		return
	}
	if !sameProof(&got, &want) {
		t.Fatalf("decoder and reference disagree on %x:\n got %+v\nwant %+v", data, got, want)
	}
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatalf("re-encode of decoded proof: %v", err)
	}
	if len(again) != got.EncodedSize() {
		t.Fatalf("re-encoded %d bytes, EncodedSize says %d", len(again), got.EncodedSize())
	}
	var back Proof
	if err := back.UnmarshalBinary(again); err != nil || !sameProof(&back, &got) {
		t.Fatalf("encode∘decode changed the proof (%v)", err)
	}
}

func FuzzProofUnmarshal(f *testing.F) {
	for _, data := range encodedProofs(f) {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(append(append([]byte(nil), data...), 0))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x00, 0x00})                                     // n=1, empty value, no siblings
	f.Add([]byte{0x00, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20})             // absurd value length
	f.Add([]byte{0x00, 0x02, 0x00, 0x41})                                     // 65 siblings declared
	f.Add([]byte{0x80, 0x00, 0x01, 0x00, 0x00})                               // non-canonical varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // varint overflow
	f.Fuzz(checkProofDecodersAgree)
}

func TestProofUnmarshalEveryTruncation(t *testing.T) {
	for _, data := range encodedProofs(t) {
		for cut := 0; cut < len(data); cut++ {
			var p Proof
			if err := p.UnmarshalBinary(data[:cut]); !errors.Is(err, ErrMalformedProof) {
				t.Fatalf("truncation at %d of %d: err = %v, want ErrMalformedProof", cut, len(data), err)
			}
			checkProofDecodersAgree(t, data[:cut])
		}
		checkProofDecodersAgree(t, data)
	}
}

func TestProofUnmarshalKeepsNoReferenceToInput(t *testing.T) {
	for _, data := range encodedProofs(t) {
		var p Proof
		if err := p.UnmarshalBinary(data); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		want, err := referenceUnmarshalProof(data)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for i := range data {
			data[i] ^= 0xff
		}
		if !sameProof(&p, &want) {
			t.Fatal("mutating the input after UnmarshalBinary changed the decoded proof")
		}
	}
}

func TestProofUnmarshalAliasedSharesStorage(t *testing.T) {
	encoded := encodedProofs(t)
	// One slab threaded through every proof: each proof's siblings must be
	// its own window of it, unable to grow into the next proof's.
	var slab [][]byte
	proofs := make([]Proof, len(encoded))
	for k, data := range encoded {
		var err error
		if slab, err = proofs[k].UnmarshalAliased(data, slab); err != nil {
			t.Fatalf("proof %d: %v", k, err)
		}
	}
	total := 0
	for k, data := range encoded {
		want, err := referenceUnmarshalProof(data)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !sameProof(&proofs[k], &want) {
			t.Fatalf("proof %d decoded wrongly through the shared slab", k)
		}
		if cap(proofs[k].Siblings) != len(proofs[k].Siblings) {
			t.Fatalf("proof %d: sibling headers can grow into their neighbour", k)
		}
		if cap(proofs[k].Value) != len(proofs[k].Value) {
			t.Fatalf("proof %d: value can grow into the next field", k)
		}
		total += len(want.Siblings)
	}
	if len(slab) != total {
		t.Fatalf("slab holds %d headers, proofs have %d siblings", len(slab), total)
	}
	// The digests alias the input: that is the contract, and what makes the
	// caller's single copy the only one.
	last := len(encoded) - 1
	if len(proofs[last].Siblings) == 0 {
		t.Fatal("fixture's last proof has no siblings")
	}
	before := proofs[last].Siblings[0][0]
	for i := range encoded[last] {
		encoded[last][i] ^= 0xff
	}
	if proofs[last].Siblings[0][0] == before {
		t.Fatal("UnmarshalAliased copied the digests it promises to alias")
	}

	// A rejected proof leaves both the receiver and the slab as they were.
	keep := proofs[0]
	grown, err := proofs[0].UnmarshalAliased([]byte{0x00, 0x02, 0x00, 0x01, 0x01}, slab)
	if !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("truncated sibling: err = %v, want ErrMalformedProof", err)
	}
	if len(grown) != len(slab) || !sameProof(&proofs[0], &keep) {
		t.Fatal("failed UnmarshalAliased modified its receiver or the slab")
	}
}

func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	tree := mustBuild(t, raggedValues(21))
	prefix := []byte("prefix")
	buf := append([]byte(nil), prefix...)
	var want []byte
	for i := 0; i < 21; i++ {
		proof, err := tree.Prove(i)
		if err != nil {
			t.Fatalf("Prove: %v", err)
		}
		data, err := proof.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		want = append(want, data...)
		if buf, err = proof.AppendBinary(buf); err != nil {
			t.Fatalf("AppendBinary: %v", err)
		}
	}
	if !bytes.Equal(buf[:len(prefix)], prefix) || !bytes.Equal(buf[len(prefix):], want) {
		t.Fatal("AppendBinary output differs from concatenated MarshalBinary output")
	}
	if _, err := (&Proof{N: 4, Index: 9, Value: []byte{1}}).AppendBinary(nil); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("AppendBinary of an invalid proof: err = %v, want ErrMalformedProof", err)
	}
}

func TestUvarintLenMatchesEncoding(t *testing.T) {
	var tmp [binary.MaxVarintLen64]byte
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := uvarintLen(v), binary.PutUvarint(tmp[:], v); got != want {
				t.Fatalf("uvarintLen(%d) = %d, PutUvarint writes %d", v, got, want)
			}
		}
	}
	if got := uvarintLen(^uint64(0)); got != binary.MaxVarintLen64 {
		t.Fatalf("uvarintLen(max) = %d", got)
	}
}

func TestProofVerifierReuseCarriesNoState(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     []Option
		buildErr error
	}{
		{"sha256", nil, nil},
		{"md5", []Option{WithHasher(md5.New)}, nil},
		{"variable-size", []Option{WithHasher(newVariableHash)}, ErrHasherSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The partial tree at ℓ=0 serves every hasher, the variable-size
			// one Build refuses included, with the proofs a Tree would give.
			values := raggedValues(37)
			tree, err := NewPartial(len(values), 0, func(i int) []byte { return values[i] }, tc.opts...)
			if err != nil {
				t.Fatalf("NewPartial: %v", err)
			}
			if _, err := Build(values, tc.opts...); !errors.Is(err, tc.buildErr) {
				t.Fatalf("Build: err = %v, want %v", err, tc.buildErr)
			}
			root := tree.Root()
			v := NewProofVerifier(tc.opts...)
			for i := 0; i < 37; i++ {
				proof, err := tree.Prove(i)
				if err != nil {
					t.Fatalf("Prove: %v", err)
				}
				if err := v.Verify(root, proof); err != nil {
					t.Fatalf("leaf %d rejected: %v", i, err)
				}
				// A convicting proof in between must not disturb the next.
				forged := *proof
				forged.Value = append([]byte{0x5a}, proof.Value...)
				if err := v.Verify(root, &forged); !errors.Is(err, ErrRootMismatch) {
					t.Fatalf("leaf %d forged: err = %v, want ErrRootMismatch", i, err)
				}
				if err := v.Verify(root, &Proof{N: 37, Index: i, Value: proof.Value}); !errors.Is(err, ErrMalformedProof) {
					t.Fatalf("leaf %d malformed: err = %v, want ErrMalformedProof", i, err)
				}
				want, err := RootFromProof(proof, tc.opts...)
				if err != nil || !bytes.Equal(want, root) {
					t.Fatalf("RootFromProof(leaf %d) = %x, %v; want the root", i, want, err)
				}
			}
		})
	}
	// RootFromProof hands out a detached copy, not the verifier's scratch.
	tree := mustBuild(t, leafValues(8))
	proof, err := tree.Prove(3)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	got, err := RootFromProof(proof)
	if err != nil {
		t.Fatalf("RootFromProof: %v", err)
	}
	proof.Value[0] ^= 1
	if !bytes.Equal(got, tree.Root()) {
		t.Fatal("RootFromProof result changed with its input")
	}
}

// TestProofLeafCountPastIntCapacityRejected: a claimed leaf count whose
// padded capacity overflows int used to spin nextPow2 forever inside
// validateProof — a hang any peer could trigger with ten bytes (found by
// FuzzProofUnmarshal; its input is committed under testdata/fuzz).
func TestProofLeafCountPastIntCapacityRejected(t *testing.T) {
	huge := &Proof{Index: 0, N: maxProofLeaves + 1, Value: []byte{1}}
	if err := Verify([]byte{1}, huge); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("Verify: err = %v, want ErrMalformedProof", err)
	}
	if _, err := huge.MarshalBinary(); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("MarshalBinary: err = %v, want ErrMalformedProof", err)
	}
	wire := binary.AppendUvarint([]byte{0x00}, maxProofLeaves+1) // index 0, n
	wire = append(wire, 0x01, 0xaa, 0x00)                        // value, no siblings
	var p Proof
	if err := p.UnmarshalBinary(wire); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("UnmarshalBinary: err = %v, want ErrMalformedProof", err)
	}
	// The largest legal count still validates (its proof needs 62 siblings).
	edge := &Proof{Index: 0, N: maxProofLeaves, Value: []byte{1}, Siblings: make([][]byte, 62)}
	for i := range edge.Siblings {
		edge.Siblings[i] = []byte{byte(i)}
	}
	if err := validateProof(edge); err != nil {
		t.Fatalf("leaf count 2^62 rejected: %v", err)
	}
}
