package hashchain

import (
	"bytes"
	"crypto/md5"
	"crypto/sha256"
	"errors"
	"hash"
	"math"
	"testing"
	"testing/quick"
)

func mustChain(t *testing.T, iterations int, opts ...Option) *Chain {
	t.Helper()
	c, err := New(iterations, opts...)
	if err != nil {
		t.Fatalf("New(%d): %v", iterations, err)
	}
	return c
}

func TestNewValidatesIterations(t *testing.T) {
	for _, bad := range []int{0, -1, -100} {
		if _, err := New(bad); !errors.Is(err, ErrBadIterations) {
			t.Errorf("New(%d): err = %v, want ErrBadIterations", bad, err)
		}
	}
	c := mustChain(t, 7)
	if got := c.Iterations(); got != 7 {
		t.Errorf("Iterations() = %d, want 7", got)
	}
}

func TestApplyMatchesManualIteration(t *testing.T) {
	seed := []byte("merkle root commitment")
	c := mustChain(t, 3)

	want := seed
	for i := 0; i < 3; i++ {
		sum := sha256.Sum256(want)
		want = sum[:]
	}
	if got := c.Apply(seed); !bytes.Equal(got, want) {
		t.Fatalf("Apply = %x, want %x", got, want)
	}
}

func TestApplyIsDeterministic(t *testing.T) {
	c := mustChain(t, 5)
	seed := []byte("seed")
	if !bytes.Equal(c.Apply(seed), c.Apply(seed)) {
		t.Fatal("Apply is not deterministic")
	}
}

func TestIteratedChainEqualsComposition(t *testing.T) {
	// g = H^6 applied once must equal g' = H^2 applied three times.
	seed := []byte("composition check")
	six := mustChain(t, 6)
	two := mustChain(t, 2)
	got := two.Apply(two.Apply(two.Apply(seed)))
	if !bytes.Equal(six.Apply(seed), got) {
		t.Fatal("H^6 != (H^2)^3")
	}
}

func TestWalk(t *testing.T) {
	c := mustChain(t, 1)
	seed := []byte("root")
	states, err := c.Walk(seed, 4)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if len(states) != 4 {
		t.Fatalf("Walk returned %d states, want 4", len(states))
	}
	// Eq. (4): state k is g applied to state k-1; state 1 is g(seed).
	cur := seed
	for k, state := range states {
		cur = c.Apply(cur)
		if !bytes.Equal(state, cur) {
			t.Fatalf("state %d does not match g^%d(seed)", k, k+1)
		}
	}
}

func TestWalkErrors(t *testing.T) {
	c := mustChain(t, 1)
	if _, err := c.Walk(nil, 3); !errors.Is(err, ErrEmptySeed) {
		t.Errorf("Walk(nil seed): err = %v, want ErrEmptySeed", err)
	}
	if _, err := c.Walk([]byte("x"), 0); !errors.Is(err, ErrBadSampleCount) {
		t.Errorf("Walk(m=0): err = %v, want ErrBadSampleCount", err)
	}
}

func TestSampleIndicesDeterministicAndInRange(t *testing.T) {
	c := mustChain(t, 2)
	root := []byte("commitment root bytes")
	const m, n = 50, 1000

	first, err := c.SampleIndices(root, m, n)
	if err != nil {
		t.Fatalf("SampleIndices: %v", err)
	}
	second, err := c.SampleIndices(root, m, n)
	if err != nil {
		t.Fatalf("SampleIndices: %v", err)
	}
	if len(first) != m {
		t.Fatalf("got %d indices, want %d", len(first), m)
	}
	for k := range first {
		if first[k] != second[k] {
			t.Fatalf("index %d differs across identical derivations", k)
		}
		if first[k] >= n {
			t.Fatalf("index %d = %d out of range [0,%d)", k, first[k], n)
		}
	}
}

func TestSampleIndicesDependOnRoot(t *testing.T) {
	// A participant who changes even one bit of the commitment gets an
	// entirely different challenge set — the property that defeats
	// pre-selecting samples (Section 4.2).
	c := mustChain(t, 1)
	a, err := c.SampleIndices([]byte("root-a"), 32, 1<<20)
	if err != nil {
		t.Fatalf("SampleIndices: %v", err)
	}
	b, err := c.SampleIndices([]byte("root-b"), 32, 1<<20)
	if err != nil {
		t.Fatalf("SampleIndices: %v", err)
	}
	same := 0
	for k := range a {
		if a[k] == b[k] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d of 32 indices coincide across different roots", same)
	}
}

func TestSampleIndicesErrors(t *testing.T) {
	c := mustChain(t, 1)
	if _, err := c.SampleIndices([]byte("r"), 10, 0); !errors.Is(err, ErrBadDomain) {
		t.Errorf("n=0: err = %v, want ErrBadDomain", err)
	}
	if _, err := c.SampleIndices(nil, 10, 5); !errors.Is(err, ErrEmptySeed) {
		t.Errorf("nil root: err = %v, want ErrEmptySeed", err)
	}
	if _, err := c.SampleIndices([]byte("r"), -1, 5); !errors.Is(err, ErrBadSampleCount) {
		t.Errorf("m=-1: err = %v, want ErrBadSampleCount", err)
	}
}

func TestSampleIndicesSmallDomains(t *testing.T) {
	c := mustChain(t, 1)
	for _, n := range []uint64{1, 2, 3} {
		indices, err := c.SampleIndices([]byte("root"), 20, n)
		if err != nil {
			t.Fatalf("SampleIndices(n=%d): %v", n, err)
		}
		for _, idx := range indices {
			if idx >= n {
				t.Fatalf("n=%d: index %d out of range", n, idx)
			}
		}
	}
}

func TestSampleIndicesUniformity(t *testing.T) {
	// §4.2 assumes "perfect randomness of the one-way hash values". Check a
	// coarse chi-square over 8 buckets with many derivations.
	c := mustChain(t, 1)
	const n = 8
	counts := make([]int, n)
	const rounds = 200
	const perRound = 16
	for r := 0; r < rounds; r++ {
		// Independent seed per round; reusing chain states would double
		// count overlapping windows and skew the statistic.
		seed := sha256.Sum256([]byte{byte(r), byte(r >> 8), 'u'})
		indices, err := c.SampleIndices(seed[:], perRound, n)
		if err != nil {
			t.Fatalf("SampleIndices: %v", err)
		}
		for _, idx := range indices {
			counts[idx]++
		}
	}
	total := rounds * perRound
	expected := float64(total) / n
	chi2 := 0.0
	for _, cnt := range counts {
		d := float64(cnt) - expected
		chi2 += d * d / expected
	}
	// 7 degrees of freedom; 0.999 quantile ≈ 24.3. Deterministic inputs, so
	// this cannot flake.
	if chi2 > 24.3 {
		t.Fatalf("chi2 = %v over buckets %v; hash-derived indices look biased", chi2, counts)
	}
}

func TestWithHasherMD5(t *testing.T) {
	// The paper's §4.2 defense is phrased as g ≡ (MD5)^k; MD5's 16-byte
	// digest must flow through index derivation.
	c := mustChain(t, 3, WithHasher(func() hash.Hash { return md5.New() }))
	indices, err := c.SampleIndices([]byte("root"), 10, 1<<30)
	if err != nil {
		t.Fatalf("SampleIndices: %v", err)
	}
	sha := mustChain(t, 3)
	shaIndices, err := sha.SampleIndices([]byte("root"), 10, 1<<30)
	if err != nil {
		t.Fatalf("SampleIndices: %v", err)
	}
	diff := false
	for k := range indices {
		if indices[k] != shaIndices[k] {
			diff = true
		}
		if indices[k] >= 1<<30 {
			t.Fatalf("index out of range: %d", indices[k])
		}
	}
	if !diff {
		t.Fatal("MD5 and SHA-256 chains derived identical indices")
	}
}

func TestIndexFromDigestShortDigests(t *testing.T) {
	tests := []struct {
		name   string
		digest []byte
		n      uint64
		want   uint64
	}{
		{name: "empty digest", digest: nil, n: 7, want: 0},
		{name: "one byte", digest: []byte{0x05}, n: 4, want: 1},
		{name: "exact eight", digest: []byte{0, 0, 0, 0, 0, 0, 0, 9}, n: 4, want: 1},
		{name: "n of one", digest: []byte{0xff, 0xff}, n: 1, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := indexFromDigest(tt.digest, tt.n); got != tt.want {
				t.Errorf("indexFromDigest = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestIndexFromDigestQuick(t *testing.T) {
	f := func(digest []byte, nSeed uint64) bool {
		n := nSeed%math.MaxUint32 + 1
		return indexFromDigest(digest, n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexFromDigestLargeN(t *testing.T) {
	// n near 2^64 exercises the 128/64 reduction path.
	digest := bytes.Repeat([]byte{0xff}, 32)
	n := uint64(math.MaxUint64 - 3)
	if got := indexFromDigest(digest, n); got >= n {
		t.Fatalf("index %d out of range for n=%d", got, n)
	}
}

// TestSampleIndicesMatchWalk pins the in-place walk to the materialized
// one: index k is the reduction of Walk's state k, and neither walk touches
// the root it starts from.
func TestSampleIndicesMatchWalk(t *testing.T) {
	for _, c := range []*Chain{mustChain(t, 1), mustChain(t, 3), mustChain(t, 2, WithHasher(md5.New))} {
		root := []byte("merkle root commitment")
		kept := append([]byte(nil), root...)
		const m, n = 9, 1000
		states, err := c.Walk(root, m)
		if err != nil {
			t.Fatalf("Walk: %v", err)
		}
		indices, err := c.SampleIndices(root, m, n)
		if err != nil {
			t.Fatalf("SampleIndices: %v", err)
		}
		for k, state := range states {
			if want := indexFromDigest(state, n); indices[k] != want {
				t.Fatalf("index %d = %d, want %d from g^%d(root)", k, indices[k], want, k+1)
			}
		}
		if !bytes.Equal(root, kept) {
			t.Fatal("a walk wrote into its root")
		}
	}
}
