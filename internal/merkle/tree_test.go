package merkle

import (
	"bytes"
	"crypto/md5"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"testing"
	"testing/quick"
)

// leafValues builds n distinct deterministic leaf values.
func leafValues(n int) [][]byte {
	values := make([][]byte, n)
	for i := range values {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(i)*2654435761)
		sum := sha256.Sum256(buf[:])
		values[i] = sum[:]
	}
	return values
}

func mustBuild(t testing.TB, values [][]byte, opts ...Option) *Tree {
	t.Helper()
	tree, err := Build(values, opts...)
	if err != nil {
		t.Fatalf("Build(%d leaves): %v", len(values), err)
	}
	return tree
}

func TestBuildRejectsInvalidInput(t *testing.T) {
	tests := []struct {
		name    string
		values  [][]byte
		wantErr error
	}{
		{name: "empty", values: nil, wantErr: ErrEmptyTree},
		{name: "nil leaf", values: [][]byte{[]byte("a"), nil}, wantErr: ErrNilLeaf},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Build(tt.values); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Build: err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestBuildHeights(t *testing.T) {
	tests := []struct {
		n          int
		wantHeight int
	}{
		{n: 1, wantHeight: 0},
		{n: 2, wantHeight: 1},
		{n: 3, wantHeight: 2},
		{n: 4, wantHeight: 2},
		{n: 5, wantHeight: 3},
		{n: 16, wantHeight: 4},
		{n: 17, wantHeight: 5},
		{n: 1024, wantHeight: 10},
	}
	for _, tt := range tests {
		t.Run(fmt.Sprintf("n=%d", tt.n), func(t *testing.T) {
			tree := mustBuild(t, leafValues(tt.n))
			if got := tree.Height(); got != tt.wantHeight {
				t.Errorf("Height() = %d, want %d", got, tt.wantHeight)
			}
			if got := tree.N(); got != tt.n {
				t.Errorf("N() = %d, want %d", got, tt.n)
			}
		})
	}
}

func TestRootIsDeterministic(t *testing.T) {
	values := leafValues(37)
	a := mustBuild(t, values)
	b := mustBuild(t, values)
	if !bytes.Equal(a.Root(), b.Root()) {
		t.Fatal("two builds over identical leaves produced different roots")
	}
}

func TestRootDependsOnEveryLeaf(t *testing.T) {
	values := leafValues(16)
	base := mustBuild(t, values).Root()
	for i := range values {
		mutated := make([][]byte, len(values))
		copy(mutated, values)
		flipped := append([]byte(nil), values[i]...)
		flipped[0] ^= 0x01
		mutated[i] = flipped
		if bytes.Equal(base, mustBuild(t, mutated).Root()) {
			t.Errorf("flipping leaf %d did not change the root", i)
		}
	}
}

func TestRootDependsOnLeafOrder(t *testing.T) {
	values := leafValues(8)
	swapped := make([][]byte, len(values))
	copy(swapped, values)
	swapped[2], swapped[5] = swapped[5], swapped[2]
	if bytes.Equal(mustBuild(t, values).Root(), mustBuild(t, swapped).Root()) {
		t.Fatal("swapping leaves did not change the root")
	}
}

func TestSingleLeafRootIsValue(t *testing.T) {
	value := []byte("only result")
	tree := mustBuild(t, [][]byte{value})
	if !bytes.Equal(tree.Root(), value) {
		t.Fatalf("single-leaf root = %x, want the leaf value", tree.Root())
	}
	proof, err := tree.Prove(0)
	if err != nil {
		t.Fatalf("Prove(0): %v", err)
	}
	if len(proof.Siblings) != 0 {
		t.Fatalf("single-leaf proof has %d siblings, want 0", len(proof.Siblings))
	}
	if err := Verify(tree.Root(), proof); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestProveVerifyAllIndices(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 16, 33, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tree := mustBuild(t, leafValues(n))
			root := tree.Root()
			for i := 0; i < n; i++ {
				proof, err := tree.Prove(i)
				if err != nil {
					t.Fatalf("Prove(%d): %v", i, err)
				}
				if err := Verify(root, proof); err != nil {
					t.Fatalf("Verify(%d): %v", i, err)
				}
			}
		})
	}
}

func TestProveIndexOutOfRange(t *testing.T) {
	tree := mustBuild(t, leafValues(8))
	for _, i := range []int{-1, 8, 100} {
		if _, err := tree.Prove(i); !errors.Is(err, ErrIndexOutOfRange) {
			t.Errorf("Prove(%d): err = %v, want ErrIndexOutOfRange", i, err)
		}
	}
}

func TestVerifyDetectsTamperedValue(t *testing.T) {
	tree := mustBuild(t, leafValues(16))
	root := tree.Root()
	proof, err := tree.Prove(5)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	proof.Value = append([]byte(nil), proof.Value...)
	proof.Value[3] ^= 0x80
	if err := Verify(root, proof); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("Verify(tampered value): err = %v, want ErrRootMismatch", err)
	}
}

func TestVerifyDetectsTamperedSibling(t *testing.T) {
	tree := mustBuild(t, leafValues(16))
	root := tree.Root()
	for level := 0; level < tree.Height(); level++ {
		proof, err := tree.Prove(9)
		if err != nil {
			t.Fatalf("Prove: %v", err)
		}
		proof.Siblings[level] = append([]byte(nil), proof.Siblings[level]...)
		proof.Siblings[level][0] ^= 0x01
		if err := Verify(root, proof); !errors.Is(err, ErrRootMismatch) {
			t.Errorf("level %d: err = %v, want ErrRootMismatch", level, err)
		}
	}
}

func TestVerifyDetectsWrongIndex(t *testing.T) {
	// A proof for leaf 3 must not verify as a proof for leaf 4: the paper's
	// supervisor derives the path position from the sample index.
	tree := mustBuild(t, leafValues(16))
	root := tree.Root()
	proof, err := tree.Prove(3)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	proof.Index = 4
	if err := Verify(root, proof); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("Verify(wrong index): err = %v, want ErrRootMismatch", err)
	}
}

func TestVerifyRejectsMalformedProofs(t *testing.T) {
	tree := mustBuild(t, leafValues(8))
	root := tree.Root()
	good, err := tree.Prove(2)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(p *Proof)
	}{
		{name: "negative index", mutate: func(p *Proof) { p.Index = -1 }},
		{name: "index beyond n", mutate: func(p *Proof) { p.Index = p.N }},
		{name: "zero n", mutate: func(p *Proof) { p.N = 0 }},
		{name: "nil value", mutate: func(p *Proof) { p.Value = nil }},
		{name: "short path", mutate: func(p *Proof) { p.Siblings = p.Siblings[:1] }},
		{name: "long path", mutate: func(p *Proof) { p.Siblings = append(p.Siblings, p.Siblings[0]) }},
		{name: "nil sibling", mutate: func(p *Proof) { p.Siblings[1] = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := &Proof{
				Index:    good.Index,
				N:        good.N,
				Value:    append([]byte(nil), good.Value...),
				Siblings: append([][]byte(nil), good.Siblings...),
			}
			tt.mutate(p)
			if err := Verify(root, p); !errors.Is(err, ErrMalformedProof) {
				t.Fatalf("Verify: err = %v, want ErrMalformedProof", err)
			}
		})
	}

	if err := Verify(root, nil); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("Verify(nil): err = %v, want ErrMalformedProof", err)
	}
}

func TestVariableLengthLeavesNoAmbiguity(t *testing.T) {
	// Length-prefixed hashing must distinguish ("ab","c") from ("a","bc").
	a := mustBuild(t, [][]byte{[]byte("ab"), []byte("c")})
	b := mustBuild(t, [][]byte{[]byte("a"), []byte("bc")})
	if bytes.Equal(a.Root(), b.Root()) {
		t.Fatal("concatenation ambiguity: different leaf splits share a root")
	}
}

func TestEmptyLeafValuesAreLegal(t *testing.T) {
	tree := mustBuild(t, [][]byte{{}, []byte("x"), {}})
	for i := 0; i < 3; i++ {
		proof, err := tree.Prove(i)
		if err != nil {
			t.Fatalf("Prove(%d): %v", i, err)
		}
		if err := Verify(tree.Root(), proof); err != nil {
			t.Fatalf("Verify(%d): %v", i, err)
		}
	}
}

func TestWithHasherChangesRoot(t *testing.T) {
	values := leafValues(8)
	shaTree := mustBuild(t, values)
	md5Tree := mustBuild(t, values, WithHasher(func() hash.Hash { return md5.New() }))
	if bytes.Equal(shaTree.Root(), md5Tree.Root()) {
		t.Fatal("different hash functions produced the same root")
	}
	proof, err := md5Tree.Prove(4)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := Verify(md5Tree.Root(), proof, WithHasher(func() hash.Hash { return md5.New() })); err != nil {
		t.Fatalf("Verify with md5: %v", err)
	}
	if err := Verify(md5Tree.Root(), proof); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("Verify with mismatched hasher: err = %v, want ErrRootMismatch", err)
	}
}

// variableHash reports a Size() that disagrees with its Sum length. The
// underlying function is still deterministic sha256.
type variableHash struct{ hash.Hash }

func newVariableHash() hash.Hash { return variableHash{Hash: sha256.New()} }

func (v variableHash) Size() int { return 16 }

// TestVariableHasherFallbackStillCorrect keeps its name from the allocating
// fallback it once covered; that fallback is gone. Digests live in
// Size()-byte rows, so every constructor and verification refuses a hasher
// whose Sum length disagrees with Size() (ErrHasherSize), and one with a
// fixed 16-byte digest (md5) works everywhere, every builder committing to
// one root.
func TestVariableHasherFallbackStillCorrect(t *testing.T) {
	values := leafValues(37)
	at := func(i int) []byte { return values[i] }
	md5Opts := []Option{WithHasher(md5.New)}
	tree := mustBuild(t, values, md5Opts...)
	root := tree.Root()
	mp, err := tree.ProveMulti([]uint64{3, 20, 36})
	if err != nil {
		t.Fatalf("ProveMulti: %v", err)
	}
	path, err := tree.Prove(5)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	for _, tc := range []struct {
		name string
		h    Hasher
		want error
	}{
		{"variable-size", newVariableHash, ErrHasherSize},
		{"md5", md5.New, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithHasher(tc.h)}
			for what, run := range map[string]func() error{
				"Build": func() error { _, err := Build(values, opts...); return err },
				"BuildFunc": func() error {
					got, err := BuildFunc(len(values), at, opts...)
					if err == nil && !bytes.Equal(got.Root(), root) {
						err = fmt.Errorf("root %x, want %x", got.Root(), root)
					}
					return err
				},
				"NewStreamBuilder": func() error {
					b, err := NewStreamBuilder(len(values), opts...)
					if err != nil {
						return err
					}
					for _, v := range values {
						if err := b.Add(v); err != nil {
							return err
						}
					}
					got, err := b.Root()
					if err == nil && !bytes.Equal(got, root) {
						err = fmt.Errorf("stream root %x, tree root %x", got, root)
					}
					return err
				},
				"NewPartial": func() error {
					p, err := NewPartial(len(values), 2, at, opts...)
					if err == nil && !bytes.Equal(p.Root(), root) {
						err = fmt.Errorf("root %x, want %x", p.Root(), root)
					}
					return err
				},
				"VerifyMulti": func() error { return NewProofVerifier(opts...).VerifyMulti(root, &mp) },
				"Verify":      func() error { return Verify(root, path, opts...) },
			} {
				if err := run(); !errors.Is(err, tc.want) {
					t.Errorf("%s: err = %v, want %v", what, err, tc.want)
				}
			}
		})
	}
}

func TestBuildFuncMatchesBuild(t *testing.T) {
	values := leafValues(21)
	a := mustBuild(t, values)
	b, err := BuildFunc(len(values), func(i int) []byte { return values[i] })
	if err != nil {
		t.Fatalf("BuildFunc: %v", err)
	}
	if !bytes.Equal(a.Root(), b.Root()) {
		t.Fatal("BuildFunc root differs from Build root")
	}
}

func TestLeafAccessor(t *testing.T) {
	values := leafValues(5)
	tree := mustBuild(t, values)
	for i, want := range values {
		got, err := tree.Leaf(i)
		if err != nil {
			t.Fatalf("Leaf(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Leaf(%d) = %x, want %x", i, got, want)
		}
	}
	if _, err := tree.Leaf(5); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("Leaf(5): err = %v, want ErrIndexOutOfRange", err)
	}
}

// TestFigure1PathStructure reproduces the worked example of Figure 1: a
// 16-leaf tree where the proof for sample x3 (leaf index 2) consists of the
// sibling leaf L4 and the Φ values of nodes A, D, and F.
func TestFigure1PathStructure(t *testing.T) {
	values := leafValues(16)
	tree := mustBuild(t, values)

	proof, err := tree.Prove(2) // x3 is the third input: index 2
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if len(proof.Siblings) != 4 {
		t.Fatalf("proof has %d siblings, want 4 (H = log2 16)", len(proof.Siblings))
	}

	hs := newHashers(buildOptions(nil))
	// Recreate the named nodes of Figure 1.
	phiA := hs.combine(values[0], values[1]) // A = hash(L1 || L2)
	phiB := hs.combine(values[2], values[3]) // B = hash(L3 || L4)
	phiC := hs.combine(phiA, phiB)           // C = hash(A || B)
	phiD := hs.combine(hs.combine(values[4], values[5]), hs.combine(values[6], values[7]))
	phiE := hs.combine(phiC, phiD) // E = hash(C || D)
	phiF := hs.combine(
		hs.combine(hs.combine(values[8], values[9]), hs.combine(values[10], values[11])),
		hs.combine(hs.combine(values[12], values[13]), hs.combine(values[14], values[15])),
	)
	phiR := hs.combine(phiE, phiF)

	wantSiblings := [][]byte{values[3], phiA, phiD, phiF} // L4, A, D, F
	for i, want := range wantSiblings {
		if !bytes.Equal(proof.Siblings[i], want) {
			t.Errorf("sibling %d mismatch with Figure 1 node", i)
		}
	}
	if !bytes.Equal(tree.Root(), phiR) {
		t.Error("root does not equal hash(E || F)")
	}
	if err := Verify(phiR, proof); err != nil {
		t.Errorf("Figure 1 verification failed: %v", err)
	}
}

func TestProofRoundTripQuick(t *testing.T) {
	// Property: for random (n, i), leaf i's proof crosses the wire as its
	// one-sample multiproof of EncodedSize bytes, decodes back to the same
	// audit path, and verifies; and a one-bit corruption of it fails.
	f := func(nSeed uint16, iSeed uint16, corrupt bool, corruptAt uint16) bool {
		n := int(nSeed%300) + 1
		i := int(iSeed) % n
		tree, err := Build(leafValues(n))
		if err != nil {
			return false
		}
		proof, err := tree.Prove(i)
		if err != nil {
			return false
		}
		mp, err := tree.ProveMulti([]uint64{uint64(i)})
		if err != nil {
			return false
		}
		data, err := mp.MarshalBinary()
		if err != nil || len(data) != proof.EncodedSize() {
			return false
		}
		var wire MultiProof
		if err := wire.UnmarshalBinary(data); err != nil {
			return false
		}
		decoded := Proof{Index: int(wire.Indices[0]), N: wire.N, Value: wire.Values[0], Siblings: wire.Siblings}
		if !sameProof(&decoded, proof) {
			return false
		}
		if !corrupt {
			return Verify(tree.Root(), &decoded) == nil
		}
		// Corrupt one bit of the value or a sibling; verification must fail.
		target := decoded.Value
		if len(decoded.Siblings) > 0 && corruptAt%2 == 0 {
			target = decoded.Siblings[int(corruptAt/2)%len(decoded.Siblings)]
		}
		if len(target) == 0 {
			return true // nothing to corrupt (empty value)
		}
		target[int(corruptAt)%len(target)] ^= 1 << (corruptAt % 8)
		return errors.Is(Verify(tree.Root(), &decoded), ErrRootMismatch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestProofUnmarshalRejectsGarbage feeds the one wire form of a proof, the
// multiproof, what no honest prover sends.
func TestProofUnmarshalRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tree := mustBuild(t, leafValues(16))
	good, err := tree.ProveMulti([]uint64{7})
	if err != nil {
		t.Fatalf("ProveMulti: %v", err)
	}
	data, err := good.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}

	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(data); cut += 7 {
			var p MultiProof
			if err := p.UnmarshalBinary(data[:cut]); err == nil {
				t.Fatalf("UnmarshalBinary accepted truncation at %d", cut)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		var p MultiProof
		if err := p.UnmarshalBinary(append(append([]byte(nil), data...), 0x00)); err == nil {
			t.Fatal("UnmarshalBinary accepted trailing bytes")
		}
	})
	t.Run("random garbage", func(t *testing.T) {
		for trial := 0; trial < 50; trial++ {
			junk := make([]byte, rng.Intn(200))
			rng.Read(junk)
			var p MultiProof
			if err := p.UnmarshalBinary(junk); err == nil {
				// Random bytes may rarely decode to a structurally valid
				// proof; it must then still be well-formed.
				if vErr := p.validate(); vErr != nil {
					t.Fatalf("decoded invalid proof from garbage: %v", vErr)
				}
			}
		}
	})
	t.Run("huge declared length", func(t *testing.T) {
		// n=1, one sample, no siblings, index 0, value length claims 2^40 bytes.
		payload := []byte{0x01, 0x01, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
		var p MultiProof
		if err := p.UnmarshalBinary(payload); err == nil {
			t.Fatal("UnmarshalBinary accepted absurd length prefix")
		}
	})
}

func TestEncodedSizeIsLogarithmic(t *testing.T) {
	// The heart of the paper's efficiency claim: proof size grows with
	// log2(n), not with n.
	sizeFor := func(n int) int {
		tree := mustBuild(t, leafValues(n))
		proof, err := tree.Prove(n / 2)
		if err != nil {
			t.Fatalf("Prove: %v", err)
		}
		return proof.EncodedSize()
	}
	s1k := sizeFor(1 << 10)
	s64k := sizeFor(1 << 16)
	// 64x more leaves must cost only ~6 extra siblings, far below 2x bytes.
	if s64k >= 2*s1k {
		t.Fatalf("proof size not logarithmic: n=2^10 → %dB, n=2^16 → %dB", s1k, s64k)
	}
	// Six more 32-byte digests with 1-byte length prefixes, plus one extra
	// varint byte each for the larger index and leaf count.
	wantExtra := 6*(32+1) + 2
	if diff := s64k - s1k; diff != wantExtra {
		t.Fatalf("size growth = %dB, want exactly %dB", diff, wantExtra)
	}
}

// TestRebuildKeepsStorage pins what Rebuild is for: a tree rebuilt at or
// below the size it has held keeps its arena, offset table, leaf slab and
// hash state — and is the tree BuildFunc builds from nothing — while one
// rebuilt larger, or under another hasher, replaces only what no longer fits.
func TestRebuildKeepsStorage(t *testing.T) {
	tree := mustBuild(t, leafValues(1000))
	arena, offs, slab, nh := &tree.arena[0], &tree.offs[0], &tree.slab[0], tree.nh
	for _, n := range []int{1000, 600, 1, 1000} {
		values := raggedValues(n)[:n]
		for i := range values {
			values[i] = values[i][:min(len(values[i]), 8)] // never more bytes than the first build's
		}
		if err := tree.Rebuild(n, PerLeaf(func(i int) []byte { return values[i] })); err != nil {
			t.Fatalf("Rebuild(%d): %v", n, err)
		}
		if want := mustBuild(t, values); !bytes.Equal(tree.Root(), want.Root()) || tree.N() != n {
			t.Fatalf("Rebuild(%d): root %x over %d leaves, BuildFunc gives %x", n, tree.Root(), tree.N(), want.Root())
		}
		if &tree.arena[:1][0] != arena || &tree.offs[0] != offs || &tree.slab[:1][0] != slab || tree.nh != nh {
			t.Fatalf("Rebuild(%d) replaced storage that was large enough", n)
		}
	}
	if err := tree.Rebuild(3000, PerLeaf(leafFunc(3000))); err != nil {
		t.Fatalf("Rebuild(3000): %v", err)
	}
	if want := mustBuild(t, leafValues(3000)); !bytes.Equal(tree.Root(), want.Root()) {
		t.Fatal("Rebuild past the held capacity differs from BuildFunc")
	}
	if err := tree.Rebuild(37, PerLeaf(leafFunc(37)), WithHasher(md5.New)); err != nil {
		t.Fatalf("Rebuild under md5: %v", err)
	}
	if want := mustBuild(t, leafValues(37), WithHasher(md5.New)); !bytes.Equal(tree.Root(), want.Root()) || tree.nh == nh {
		t.Fatal("Rebuild under another hasher kept the old hash state or differs from BuildFunc")
	}
}

// TestRebuildAfterError: a failed Rebuild leaves storage a later one can
// still use.
func TestRebuildAfterError(t *testing.T) {
	tree := mustBuild(t, leafValues(64))
	err := tree.Rebuild(64, PerLeaf(func(i int) []byte {
		if i == 40 {
			return nil
		}
		return []byte{byte(i)}
	}))
	if !errors.Is(err, ErrNilLeaf) {
		t.Fatalf("Rebuild over a nil leaf: err = %v, want ErrNilLeaf", err)
	}
	if err := tree.Rebuild(0, PerLeaf(leafFunc(1))); !errors.Is(err, ErrEmptyTree) {
		t.Fatalf("Rebuild(0): err = %v, want ErrEmptyTree", err)
	}
	if err := tree.Rebuild(50, PerLeaf(leafFunc(50))); err != nil {
		t.Fatalf("Rebuild after the failures: %v", err)
	}
	if want := mustBuild(t, leafValues(50)); !bytes.Equal(tree.Root(), want.Root()) {
		t.Fatal("tree rebuilt after a failed Rebuild differs from BuildFunc")
	}
}
