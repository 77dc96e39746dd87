package merkle

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// referenceMultiProof reads a multiproof off the reference heap the slow,
// obvious way: mark every node on a sampled path, then take, level by level
// and left to right, the sibling of each marked node that is not marked
// itself. It is the specification multiWalk and both ProveMulti are checked
// against.
func referenceMultiProof(heap [][]byte, n int, challenged []uint64) MultiProof {
	capacity := len(heap) / 2
	onPath := make(map[int]bool)
	leaves := make(map[uint64]bool)
	for _, idx := range challenged {
		leaves[idx] = true
		for pos := capacity + int(idx); pos >= 1; pos /= 2 {
			onPath[pos] = true
		}
	}
	mp := MultiProof{N: n, Values: [][]byte{}, Siblings: [][]byte{}}
	for idx := range leaves {
		mp.Indices = append(mp.Indices, idx)
	}
	slices.Sort(mp.Indices)
	for _, idx := range mp.Indices {
		mp.Values = append(mp.Values, heap[capacity+int(idx)])
	}
	for lo := capacity; lo > 1; lo /= 2 {
		for pos := lo; pos < 2*lo; pos++ {
			if onPath[pos] && !onPath[pos^1] {
				mp.Siblings = append(mp.Siblings, heap[pos^1])
			}
		}
	}
	return mp
}

// sameMultiProof compares two multiproofs field by field, by content.
func sameMultiProof(a, b *MultiProof) bool {
	same := func(x, y [][]byte) bool {
		return slices.EqualFunc(x, y, func(p, q []byte) bool { return p != nil && q != nil && bytes.Equal(p, q) })
	}
	return a.N == b.N && slices.Equal(a.Indices, b.Indices) && same(a.Values, b.Values) && same(a.Siblings, b.Siblings)
}

// mustEncodeMulti marshals a proof the test built honestly.
func mustEncodeMulti(tb testing.TB, mp *MultiProof) []byte {
	tb.Helper()
	data, err := mp.MarshalBinary()
	if err != nil {
		tb.Fatalf("MarshalBinary: %v", err)
	}
	if len(data) != mp.EncodedSize() {
		tb.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), mp.EncodedSize())
	}
	return data
}

// dirtyScratch returns a proof scratch that has held a 48-sample proof of a
// 400-leaf tree of 0xA5 bytes and then its decode.
func dirtyScratch(t *testing.T) *ProofScratch {
	t.Helper()
	tree, err := BuildFunc(400, func(i int) []byte { return bytes.Repeat([]byte{0xA5}, 1+i%50) })
	if err != nil {
		t.Fatalf("BuildFunc: %v", err)
	}
	challenged := make([]uint64, 48)
	for i := range challenged {
		challenged[i] = uint64(i * 8)
	}
	s := new(ProofScratch)
	mp, err := tree.ProveMultiInto(s, challenged)
	if err != nil {
		t.Fatalf("ProveMultiInto: %v", err)
	}
	var back MultiProof
	if err := back.UnmarshalAliasedInto(s, mustEncodeMulti(t, &mp)); err != nil {
		t.Fatalf("UnmarshalAliasedInto: %v", err)
	}
	return s
}

// checkMultiProofMatchesPaths is the body of FuzzMultiProofMatchesPaths.
func checkMultiProofMatchesPaths(t *testing.T, nSeed uint16, mSeed uint8, deep, useMD5 bool, data []byte) {
	n := int(nSeed)%300 + 1
	values := carveLeaves(n, data)
	var opts []Option
	if useMD5 {
		opts = append(opts, WithHasher(md5.New))
	}
	// m draws with replacement, and one index repeated outright.
	rng := rand.New(rand.NewSource(int64(nSeed)<<8 | int64(mSeed)))
	challenged := make([]uint64, int(mSeed)%40+1)
	for i := range challenged {
		challenged[i] = uint64(rng.Intn(n))
	}
	challenged = append(challenged, challenged[0])

	at := func(i int) []byte { return values[i] }
	tree, err := BuildFunc(n, at, opts...)
	if err != nil {
		t.Fatalf("BuildFunc(n=%d): %v", n, err)
	}
	ell := 0
	if deep {
		ell = min(2, tree.Height())
	}
	partial, err := NewPartial(n, ell, at, opts...)
	if err != nil {
		t.Fatalf("NewPartial(n=%d, ℓ=%d): %v", n, ell, err)
	}
	mp, err := tree.ProveMulti(challenged)
	if err != nil {
		t.Fatalf("Tree.ProveMulti: %v", err)
	}
	fromPartial, err := partial.ProveMulti(challenged)
	if err != nil {
		t.Fatalf("PartialTree.ProveMulti: %v", err)
	}
	encoded := mustEncodeMulti(t, &mp)
	if !bytes.Equal(encoded, mustEncodeMulti(t, &fromPartial)) {
		t.Fatalf("n=%d ℓ=%d: Tree and PartialTree emit different multiproofs for %v", n, ell, challenged)
	}
	want := referenceMultiProof(referenceHeap(newHashers(buildOptions(opts)), values), n, challenged)
	if !sameMultiProof(&mp, &want) {
		t.Fatalf("n=%d: multiproof for %v differs from the reference", n, challenged)
	}

	// One root: the tree's, the multiproof's, every single path's.
	root := tree.Root()
	v := NewProofVerifier(opts...)
	got, err := v.rootMulti(&mp)
	if err != nil || !bytes.Equal(got, root) {
		t.Fatalf("n=%d: multiproof root %x (%v), tree root %x", n, got, err, root)
	}
	for _, idx := range mp.Indices {
		path, err := tree.Prove(int(idx))
		if err != nil {
			t.Fatalf("Prove(%d): %v", idx, err)
		}
		if err := Verify(root, path, opts...); err != nil {
			t.Fatalf("n=%d: path %d does not reach tree root %x: %v", n, idx, root, err)
		}
	}
	var decoded MultiProof
	if err := decoded.UnmarshalBinary(encoded); err != nil || !sameMultiProof(&decoded, &mp) {
		t.Fatalf("n=%d: decode of an honest multiproof: %v", n, err)
	}
	if err := v.VerifyMulti(root, &decoded); err != nil {
		t.Fatalf("n=%d: decoded multiproof rejected: %v", n, err)
	}

	// The same proof out of a scratch another tree's larger proof and a
	// decode have used: same fields, same bytes, no value nil.
	scratch := dirtyScratch(t)
	inScratch, err := tree.ProveMultiInto(scratch, challenged)
	if err != nil || !sameMultiProof(&inScratch, &mp) || !bytes.Equal(mustEncodeMulti(t, &inScratch), encoded) {
		t.Fatalf("n=%d: multiproof for %v built in a used scratch differs (%v)", n, challenged, err)
	}
	scratch = dirtyScratch(t)
	var aliased MultiProof
	if err := aliased.UnmarshalAliasedInto(scratch, encoded); err != nil || !sameMultiProof(&aliased, &mp) {
		t.Fatalf("n=%d: decode into a used scratch: %v", n, err)
	}
	if err := v.VerifyMulti(root, &aliased); err != nil {
		t.Fatalf("n=%d: multiproof decoded into a used scratch rejected: %v", n, err)
	}

	// Every tampering is refused with one of the two sentinels, and the
	// verifier is none the worse for it.
	refuse := func(what string, forged MultiProof, want error) {
		t.Helper()
		if err := v.VerifyMulti(root, &forged); !errors.Is(err, want) {
			t.Fatalf("n=%d %v: %s: err = %v, want %v", n, challenged, what, err, want)
		}
		if _, err := forged.MarshalBinary(); want == ErrMalformedProof && !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("n=%d %v: %s: MarshalBinary err = %v, want ErrMalformedProof", n, challenged, what, err)
		}
	}
	flip := func(field []byte) []byte {
		if len(field) == 0 {
			return []byte{0x5a}
		}
		out := bytes.Clone(field)
		out[len(out)/2] ^= 0x01
		return out
	}
	for i := range mp.Values {
		forged := mp
		forged.Values = slices.Clone(mp.Values)
		forged.Values[i] = flip(mp.Values[i])
		refuse("flipped value", forged, ErrRootMismatch)
	}
	for i := range mp.Siblings {
		forged := mp
		forged.Siblings = slices.Clone(mp.Siblings)
		forged.Siblings[i] = flip(mp.Siblings[i])
		refuse("flipped sibling", forged, ErrRootMismatch)
	}
	if len(mp.Siblings) > 0 {
		forged := mp
		forged.Siblings = mp.Siblings[:len(mp.Siblings)-1]
		refuse("dropped sibling", forged, ErrMalformedProof)
	}
	forged := mp
	forged.Siblings = append(slices.Clone(mp.Siblings), root)
	refuse("surplus sibling", forged, ErrMalformedProof)
	if k := len(mp.Indices); k > 1 {
		forged := mp
		forged.Indices = slices.Clone(mp.Indices)
		forged.Indices[0], forged.Indices[k-1] = forged.Indices[k-1], forged.Indices[0]
		refuse("swapped indices", forged, ErrMalformedProof)
	}
	if err := v.VerifyMulti(root, &mp); err != nil {
		t.Fatalf("n=%d: honest multiproof rejected after the forgeries: %v", n, err)
	}
}

// FuzzMultiProofMatchesPaths is the differential for the multiproof: over
// fuzzed domain sizes (one leaf and non-powers of two included), ragged and
// empty leaf values, challenges with repeats, ℓ ∈ {0, 2} and two digest
// sizes, it must reconstruct the root the tree and every single audit path
// give, come out of Tree and PartialTree byte-identical, and survive no
// tampering.
func FuzzMultiProofMatchesPaths(f *testing.F) {
	for _, s := range multiProofSeeds {
		f.Add(s.nSeed, s.mSeed, s.deep, s.useMD5, s.data)
	}
	f.Fuzz(checkMultiProofMatchesPaths)
}

var multiProofSeeds = []struct {
	nSeed        uint16
	mSeed        uint8
	deep, useMD5 bool
	data         []byte
}{
	{0, 0, false, false, []byte{0x03, 'a', 'b', 'c'}}, // one leaf: the root is the value
	{1, 3, true, false, []byte{}},                     // two empty leaves, both sampled
	{36, 7, true, true, []byte("\x05hello\x00\x02hi\x27fuzz")},
	{63, 7, false, false, bytes.Repeat([]byte{0x08}, 600)}, // the benchmark's n=64, m=8
	{255, 15, true, false, bytes.Repeat([]byte{0x08, 0xAA}, 1200)},
	{299, 39, false, true, bytes.Repeat([]byte{0x00, 0x01, 0xAA, 0x28}, 300)},
	{199, 20, false, true, nil}, // every leaf empty: values of no bytes that are not nil
}

// TestDirtyScratchMultiProofMatchesPaths runs the differential's seeds by a
// name the kit checks select: each proof is also built in, and decoded into,
// a scratch that has held a larger one.
func TestDirtyScratchMultiProofMatchesPaths(t *testing.T) {
	for _, s := range multiProofSeeds {
		checkMultiProofMatchesPaths(t, s.nSeed, s.mSeed, s.deep, s.useMD5, s.data)
	}
}

// TestMultiProofSingleSampleIsAuditPath: for one sample nothing is shared, so
// the multiproof is Prove's audit path — the same value, the same H siblings,
// bottom-up.
func TestMultiProofSingleSampleIsAuditPath(t *testing.T) {
	for _, values := range [][][]byte{leafValues(1), leafValues(2), raggedValues(5), leafValues(64), raggedValues(37)} {
		tree := mustBuild(t, values)
		for i := range values {
			path, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("Prove(%d): %v", i, err)
			}
			mp, err := tree.ProveMulti([]uint64{uint64(i), uint64(i)})
			if err != nil {
				t.Fatalf("ProveMulti(%d): %v", i, err)
			}
			asPath := &Proof{Index: int(mp.Indices[0]), N: mp.N, Value: mp.Values[0], Siblings: mp.Siblings}
			if len(mp.Indices) != 1 || len(mp.Siblings) != tree.Height() || !sameProof(asPath, path) {
				t.Fatalf("n=%d: multiproof of leaf %d is not its audit path", len(values), i)
			}
			// The proof shares the tree's slab and one header slab; neither
			// field may be able to grow into its neighbour.
			if cap(mp.Values) != len(mp.Values) || cap(mp.Values[0]) != len(mp.Values[0]) {
				t.Fatalf("n=%d: multiproof of leaf %d can grow into storage it shares", len(values), i)
			}
		}
		if _, err := tree.ProveMulti([]uint64{0, uint64(len(values))}); !errors.Is(err, ErrIndexOutOfRange) {
			t.Fatalf("ProveMulti past the domain: err = %v, want ErrIndexOutOfRange", err)
		}
	}
}

// TestPartialProveMultiRebuildsPerSample pins the §3.3 accounting: one 2^ℓ
// rebuild per challenged sample, repeats and samples sharing a subtree
// included, exactly as one Prove per sample costs.
func TestPartialProveMultiRebuildsPerSample(t *testing.T) {
	const n, ell = 128, 3
	partial, err := NewPartial(n, ell, leafFunc(n))
	if err != nil {
		t.Fatalf("NewPartial: %v", err)
	}
	challenged := []uint64{5, 6, 5, 127, 64, 0, 7} // 5, 6, 7 and 0 share one subtree
	if _, err := partial.ProveMulti(challenged); err != nil {
		t.Fatalf("ProveMulti: %v", err)
	}
	if got, want := partial.RebuiltLeaves(), int64(len(challenged)<<ell); got != want {
		t.Fatalf("RebuiltLeaves() = %d, want %d (m·2^ℓ)", got, want)
	}
	if _, err := partial.ProveMulti([]uint64{n}); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("ProveMulti past the domain: err = %v, want ErrIndexOutOfRange", err)
	}
}

// TestVerifyMultiRejectsMalformedProofs covers the shapes no honest prover
// emits; each must be refused as malformed by verification and by the
// encoder, never read out of bounds.
func TestVerifyMultiRejectsMalformedProofs(t *testing.T) {
	tree := mustBuild(t, leafValues(16))
	root := tree.Root()
	honest, err := tree.ProveMulti([]uint64{2, 9, 10})
	if err != nil {
		t.Fatalf("ProveMulti: %v", err)
	}
	mutate := func(change func(mp *MultiProof)) *MultiProof {
		mp := honest
		mp.Indices = slices.Clone(honest.Indices)
		mp.Values = slices.Clone(honest.Values)
		mp.Siblings = slices.Clone(honest.Siblings)
		change(&mp)
		return &mp
	}
	for name, mp := range map[string]*MultiProof{
		"nil proof":        nil,
		"zero n":           mutate(func(mp *MultiProof) { mp.N = 0 }),
		"n past capacity":  mutate(func(mp *MultiProof) { mp.N = maxProofLeaves + 1 }),
		"no samples":       mutate(func(mp *MultiProof) { mp.Indices, mp.Values = nil, nil }),
		"missing value":    mutate(func(mp *MultiProof) { mp.Values = mp.Values[:2] }),
		"surplus value":    mutate(func(mp *MultiProof) { mp.Values = append(mp.Values, []byte{1}) }),
		"nil value":        mutate(func(mp *MultiProof) { mp.Values[1] = nil }),
		"nil sibling":      mutate(func(mp *MultiProof) { mp.Siblings[0] = nil }),
		"index beyond n":   mutate(func(mp *MultiProof) { mp.Indices[2] = 16 }),
		"repeated index":   mutate(func(mp *MultiProof) { mp.Indices[1] = 2 }),
		"descending index": mutate(func(mp *MultiProof) { mp.Indices[0], mp.Indices[1] = 9, 2 }),
		"no siblings":      mutate(func(mp *MultiProof) { mp.Siblings = nil }),
		// Adjacent samples need fewer siblings than these three carry.
		"siblings of other samples": mutate(func(mp *MultiProof) { mp.Indices[0] = 8 }),
	} {
		if err := NewProofVerifier().VerifyMulti(root, mp); !errors.Is(err, ErrMalformedProof) {
			t.Errorf("%s: VerifyMulti err = %v, want ErrMalformedProof", name, err)
		}
		if _, err := mp.MarshalBinary(); !errors.Is(err, ErrMalformedProof) {
			t.Errorf("%s: MarshalBinary err = %v, want ErrMalformedProof", name, err)
		}
		if _, err := mp.AppendBinary(nil); !errors.Is(err, ErrMalformedProof) {
			t.Errorf("%s: AppendBinary err = %v, want ErrMalformedProof", name, err)
		}
	}
	if _, ok := honest.Value(9); !ok {
		t.Error("Value(9) not found in a proof that covers leaf 9")
	}
	if _, ok := honest.Value(3); ok {
		t.Error("Value(3) found in a proof that does not cover leaf 3")
	}
}

// TestProofVerifierMixesPathsAndMultiProofs: one verifier serves audit
// paths — one-sample multiproofs — and multiproofs of any size in any order,
// under both digest sizes, and a convicting proof in between disturbs
// nothing.
func TestProofVerifierMixesPathsAndMultiProofs(t *testing.T) {
	for name, opts := range map[string][]Option{
		"sha256": nil,
		"md5":    {WithHasher(md5.New)},
	} {
		values := raggedValues(37)
		tree, err := NewPartial(len(values), 0, func(i int) []byte { return values[i] }, opts...)
		if err != nil {
			t.Fatalf("%s: NewPartial: %v", name, err)
		}
		root := tree.Root()
		v := NewProofVerifier(opts...)
		for _, challenged := range [][]uint64{{4}, {0, 36, 17, 18, 19, 3}, {36}, {1, 2}} {
			mp, err := tree.ProveMulti(challenged)
			if err != nil {
				t.Fatalf("%s: ProveMulti: %v", name, err)
			}
			if err := v.VerifyMulti(root, &mp); err != nil {
				t.Fatalf("%s: multiproof of %v rejected: %v", name, challenged, err)
			}
			forged := mp
			forged.Values = slices.Clone(mp.Values)
			forged.Values[0] = append([]byte{0x5a}, mp.Values[0]...)
			if err := v.VerifyMulti(root, &forged); !errors.Is(err, ErrRootMismatch) {
				t.Fatalf("%s: forged multiproof of %v: err = %v, want ErrRootMismatch", name, challenged, err)
			}
			path, err := tree.ProveMulti(challenged[:1])
			if err != nil {
				t.Fatalf("%s: ProveMulti: %v", name, err)
			}
			if err := v.VerifyMulti(root, &path); err != nil {
				t.Fatalf("%s: path %d rejected between multiproofs: %v", name, challenged[0], err)
			}
		}
	}
}

// TestProofVerifierReuseCarriesNoState runs leaf after leaf through one
// verifier, a convicting and a malformed proof after each honest one; a
// verifier set up under a hasher it refuses refuses everything, and Reset
// to the default hash makes it as good as a fresh one.
func TestProofVerifierReuseCarriesNoState(t *testing.T) {
	values := raggedValues(37)
	for _, tc := range []struct {
		name string
		opts []Option
		want error
	}{
		{"sha256", nil, nil},
		{"md5", []Option{WithHasher(md5.New)}, nil},
		{"variable-size", []Option{WithHasher(newVariableHash)}, ErrHasherSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := mustBuild(t, values)
			if tc.want == nil {
				tree = mustBuild(t, values, tc.opts...)
			}
			root := tree.Root()
			v := NewProofVerifier(tc.opts...)
			for i := uint64(0); i < 37; i++ {
				mp, err := tree.ProveMulti([]uint64{i})
				if err != nil {
					t.Fatalf("ProveMulti: %v", err)
				}
				if err := v.VerifyMulti(root, &mp); !errors.Is(err, tc.want) {
					t.Fatalf("leaf %d: err = %v, want %v", i, err, tc.want)
				}
				if tc.want != nil {
					continue
				}
				forged := mp
				forged.Values = [][]byte{append([]byte{0x5a}, mp.Values[0]...)}
				if err := v.VerifyMulti(root, &forged); !errors.Is(err, ErrRootMismatch) {
					t.Fatalf("leaf %d forged: err = %v, want ErrRootMismatch", i, err)
				}
				malformed := mp
				malformed.Siblings = nil
				if err := v.VerifyMulti(root, &malformed); !errors.Is(err, ErrMalformedProof) {
					t.Fatalf("leaf %d malformed: err = %v, want ErrMalformedProof", i, err)
				}
			}
			v.Reset()
			fresh := mustBuild(t, values)
			mp, err := fresh.ProveMulti([]uint64{0, 36})
			if err != nil {
				t.Fatalf("ProveMulti: %v", err)
			}
			if err := v.VerifyMulti(fresh.Root(), &mp); err != nil {
				t.Fatalf("after Reset: %v", err)
			}
		})
	}
}

// encodedMultiProofs returns real encoded multiproofs across tree shapes:
// one leaf (no siblings), padded domains, ragged and empty values, every
// leaf sampled (no siblings either).
func encodedMultiProofs(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, shape := range []struct {
		values     [][]byte
		challenged []uint64
	}{
		{leafValues(1), []uint64{0}},
		{leafValues(2), []uint64{1, 0}},
		{raggedValues(5), []uint64{4, 0, 4}},
		{leafValues(64), []uint64{3, 60, 17, 17, 0, 63, 31, 32}},
		{raggedValues(37), []uint64{36, 0, 20, 21}},
		{raggedValues(300), []uint64{299, 128, 127}},
	} {
		mp, err := mustBuild(tb, shape.values).ProveMulti(shape.challenged)
		if err != nil {
			tb.Fatalf("ProveMulti: %v", err)
		}
		out = append(out, mustEncodeMulti(tb, &mp))
	}
	return out
}

func TestMultiProofCodec(t *testing.T) {
	for _, data := range encodedMultiProofs(t) {
		var mp MultiProof
		if err := mp.UnmarshalBinary(data); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		if again := mustEncodeMulti(t, &mp); !bytes.Equal(again, data) {
			t.Fatalf("encode∘decode changed the bytes:\n got %x\nwant %x", again, data)
		}
		// The headers share one slab; no field may grow into the next.
		if cap(mp.Values) != len(mp.Values) {
			t.Fatal("decoded values can grow into the sibling headers")
		}
		for _, field := range append(slices.Clone(mp.Values), mp.Siblings...) {
			if field == nil || cap(field) != len(field) {
				t.Fatal("decoded field is nil or can grow into its neighbour")
			}
		}
	}
}

// TestAppendBinaryMatchesMarshalBinary: proofs appended one after another
// into one buffer are their MarshalBinary encodings back to back, behind
// whatever the buffer held; an invalid proof appends nothing.
func TestAppendBinaryMatchesMarshalBinary(t *testing.T) {
	prefix := []byte("prefix")
	buf := bytes.Clone(prefix)
	want := bytes.Clone(prefix)
	for _, data := range encodedMultiProofs(t) {
		var mp MultiProof
		if err := mp.UnmarshalBinary(data); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		var err error
		if buf, err = mp.AppendBinary(buf); err != nil {
			t.Fatalf("AppendBinary: %v", err)
		}
		want = append(want, data...)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("AppendBinary output differs from concatenated MarshalBinary output")
	}
	invalid := &MultiProof{N: 4, Indices: []uint64{9}, Values: [][]byte{{1}}}
	if out, err := invalid.AppendBinary(buf); !errors.Is(err, ErrMalformedProof) || out != nil {
		t.Fatalf("AppendBinary of an invalid proof: %d bytes, err = %v, want ErrMalformedProof", len(out), err)
	}
}

// TestProofUnmarshalEveryTruncation: every truncation of a proof and any
// trailing byte is malformed, and a failed decode leaves its receiver alone.
func TestProofUnmarshalEveryTruncation(t *testing.T) {
	for _, data := range append(encodedMultiProofs(t), encodedPaths(t)...) {
		var mp MultiProof
		if err := mp.UnmarshalBinary(data); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		for cut := 0; cut < len(data); cut++ {
			kept := mp
			if err := kept.UnmarshalBinary(data[:cut]); !errors.Is(err, ErrMalformedProof) {
				t.Fatalf("truncation at %d of %d: err = %v, want ErrMalformedProof", cut, len(data), err)
			}
			if !sameMultiProof(&kept, &mp) {
				t.Fatalf("truncation at %d: failed decode modified its receiver", cut)
			}
		}
		if err := new(MultiProof).UnmarshalBinary(append(bytes.Clone(data), 0)); !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("trailing byte: err = %v, want ErrMalformedProof", err)
		}
	}
}

// TestProofUnmarshalKeepsNoReferenceToInput: UnmarshalBinary keeps no
// reference to its input; UnmarshalAliased promises the opposite.
func TestProofUnmarshalKeepsNoReferenceToInput(t *testing.T) {
	for _, data := range encodedMultiProofs(t) {
		var mp, aliased MultiProof
		if err := mp.UnmarshalBinary(data); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		input, original := bytes.Clone(data), bytes.Clone(data)
		if err := aliased.UnmarshalAliased(input); err != nil {
			t.Fatalf("UnmarshalAliased: %v", err)
		}
		for i := range data {
			data[i] ^= 0xff
			input[i] ^= 0xff
		}
		if again, err := mp.MarshalBinary(); err != nil || !bytes.Equal(again, original) {
			t.Fatal("mutating the input after UnmarshalBinary changed the decoded proof")
		}
		if sameMultiProof(&aliased, &mp) {
			t.Fatal("UnmarshalAliased copied the fields it promises to alias")
		}
	}
}

// encodedPaths returns encoded audit paths — one-sample multiproofs — across
// tree shapes: one leaf (no siblings), padded domains, variable-length and
// empty values.
func encodedPaths(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, values := range [][][]byte{leafValues(1), leafValues(2), raggedValues(5), leafValues(64), raggedValues(37)} {
		tree := mustBuild(tb, values)
		for _, i := range []int{0, len(values) / 2, len(values) - 1} {
			mp, err := tree.ProveMulti([]uint64{uint64(i)})
			if err != nil {
				tb.Fatalf("ProveMulti(%d): %v", i, err)
			}
			out = append(out, mustEncodeMulti(tb, &mp))
		}
	}
	return out
}

// checkProofUnmarshal is the body of FuzzProofUnmarshal.
func checkProofUnmarshal(t *testing.T, data []byte) {
	var mp MultiProof
	if err := mp.UnmarshalBinary(data); err != nil {
		if !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("rejection without ErrMalformedProof: %v", err)
		}
		if mp.N != 0 || mp.Indices != nil || mp.Values != nil || mp.Siblings != nil {
			t.Fatalf("failed decode modified its receiver: %+v", mp)
		}
		return
	}
	again, err := mp.MarshalBinary()
	if err != nil || len(again) != mp.EncodedSize() {
		t.Fatalf("re-encode of a decoded proof: %d bytes, EncodedSize %d, %v", len(again), mp.EncodedSize(), err)
	}
	var back MultiProof
	if err := back.UnmarshalBinary(again); err != nil || !sameMultiProof(&back, &mp) {
		t.Fatalf("encode∘decode changed the proof (%v)", err)
	}
	// Verification of a proof that decoded reaches a verdict.
	root := make([]byte, 32)
	if err := NewProofVerifier().VerifyMulti(root, &mp); err != nil && !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("VerifyMulti of a decoded proof: %v", err)
	}
	if len(mp.Indices) == 1 {
		path := Proof{Index: int(mp.Indices[0]), N: mp.N, Value: mp.Values[0], Siblings: mp.Siblings}
		if path.EncodedSize() != len(again) {
			t.Fatalf("Proof.EncodedSize = %d, its multiproof encodes in %d", path.EncodedSize(), len(again))
		}
		if err := Verify(root, &path); err != nil && !errors.Is(err, ErrRootMismatch) {
			t.Fatalf("Verify of a decoded path: %v", err)
		}
	}
}

// FuzzProofUnmarshal holds the proof decoder to its contract on any bytes:
// it refuses with ErrMalformedProof and leaves its receiver alone, or yields
// a proof that re-encodes in EncodedSize bytes to one that decodes the same
// and whose verification — as a multiproof and, for one sample, through
// Verify — reaches a verdict. The committed corpus holds the input that once
// hung validation on a leaf count past 2^62.
func FuzzProofUnmarshal(f *testing.F) {
	for _, data := range encodedPaths(f) {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(append(bytes.Clone(data), 0))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x01, 0x00, 0x00, 0x00})                               // n=1, one empty value, no siblings
	f.Add([]byte{0x01, 0x01, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}) // absurd value length
	f.Add([]byte{0x02, 0x01, 0x41, 0x00, 0x00})                               // 65 siblings declared
	f.Add([]byte{0x81, 0x00, 0x01, 0x00, 0x00, 0x00})                         // non-canonical varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // varint overflow
	f.Fuzz(checkProofUnmarshal)
}

// TestProofLeafCountPastIntCapacityRejected: a claimed leaf count whose
// padded capacity overflows int used to spin nextPow2 forever inside
// validation — a hang any peer could trigger with ten bytes (found by
// FuzzProofUnmarshal; its input is committed under testdata/fuzz).
func TestProofLeafCountPastIntCapacityRejected(t *testing.T) {
	huge := &Proof{Index: 0, N: maxProofLeaves + 1, Value: []byte{1}}
	if err := Verify([]byte{1}, huge); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("Verify: err = %v, want ErrMalformedProof", err)
	}
	wire := binary.AppendUvarint(nil, maxProofLeaves+1) // n
	wire = append(wire, 0x01, 0x00, 0x00, 0x01, 0xaa)   // one sample, no siblings, index 0, value
	if err := new(MultiProof).UnmarshalBinary(wire); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("UnmarshalBinary: err = %v, want ErrMalformedProof", err)
	}
	// The largest legal count is a shape verification accepts (its proof
	// needs 62 siblings) and reaches a verdict on.
	edge := &Proof{Index: 0, N: maxProofLeaves, Value: []byte{1}, Siblings: make([][]byte, 62)}
	for i := range edge.Siblings {
		edge.Siblings[i] = []byte{byte(i)}
	}
	if err := Verify([]byte{1}, edge); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("leaf count 2^62: err = %v, want ErrRootMismatch", err)
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

// sameProof compares two audit paths field by field, by content.
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

// TestMultiProofUnmarshalChecksCountsBeforeAllocating: a declared sample or
// sibling count the remaining bytes cannot hold is refused before it sizes
// anything — 2^24 of either would otherwise cost hundreds of megabytes.
func TestMultiProofUnmarshalChecksCountsBeforeAllocating(t *testing.T) {
	header := func(n, k, s uint64) []byte {
		data := binary.AppendUvarint(nil, n)
		data = binary.AppendUvarint(data, k)
		return binary.AppendUvarint(data, s)
	}
	tail := bytes.Repeat([]byte{0x00}, 64)
	for name, data := range map[string][]byte{
		"samples":           append(header(1<<30, 1<<24, 0), tail...),
		"siblings":          append(header(1<<30, 1, 1<<24), tail...),
		"samples, absurd":   append(header(1<<30, 1<<62, 0), tail...),
		"siblings, absurd":  append(header(1<<30, 1, ^uint64(0)), tail...),
		"both fill exactly": append(header(1<<30, 20, 25), tail...), // 2·20+25 > 64
		"zero samples":      append(header(1<<30, 0, 0), tail...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := new(MultiProof).UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrMalformedProof) {
			t.Errorf("%s: err = %v, want ErrMalformedProof", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: refused only after allocating %d bytes", name, grew)
		}
	}
	// An index list cannot leave the domain or wrap around it.
	for name, data := range map[string][]byte{
		"first index is n":    {0x05, 0x01, 0x00, 0x05, 0x00},
		"gap reaches n":       {0x05, 0x02, 0x00, 0x03, 0x01, 0x00, 0x00},
		"gap wraps 64 bits":   append(append([]byte{0x05, 0x02, 0x00, 0x03}, binary.AppendUvarint(nil, ^uint64(0)-3)...), 0x00, 0x00),
		"leaf count past cap": append(binary.AppendUvarint(nil, maxProofLeaves+1), 0x01, 0x00, 0x00, 0x00),
	} {
		if err := new(MultiProof).UnmarshalBinary(data); !errors.Is(err, ErrMalformedProof) {
			t.Errorf("%s: err = %v, want ErrMalformedProof", name, err)
		}
	}
}
