package merkle

import (
	"bytes"
	"crypto/md5"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamBuilderMatchesTree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			values := leafValues(n)
			want := mustBuild(t, values).Root()

			b, err := NewStreamBuilder(n)
			if err != nil {
				t.Fatalf("NewStreamBuilder: %v", err)
			}
			for _, v := range values {
				if err := b.Add(v); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
			got, err := b.Root()
			if err != nil {
				t.Fatalf("Root: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stream root %x != tree root %x", got, want)
			}
		})
	}
}

func TestStreamBuilderErrors(t *testing.T) {
	if _, err := NewStreamBuilder(0); !errors.Is(err, ErrEmptyTree) {
		t.Fatalf("NewStreamBuilder(0): err = %v, want ErrEmptyTree", err)
	}

	b, err := NewStreamBuilder(2)
	if err != nil {
		t.Fatalf("NewStreamBuilder: %v", err)
	}
	if err := b.Add(nil); !errors.Is(err, ErrNilLeaf) {
		t.Fatalf("Add(nil): err = %v, want ErrNilLeaf", err)
	}
	if _, err := b.Root(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("early Root: err = %v, want ErrIncomplete", err)
	}
	if err := b.Add([]byte("a")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if got := b.Added(); got != 1 {
		t.Fatalf("Added() = %d, want 1", got)
	}
	if err := b.Add([]byte("b")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := b.Add([]byte("c")); !errors.Is(err, ErrTooManyLeaves) {
		t.Fatalf("extra Add: err = %v, want ErrTooManyLeaves", err)
	}
}

func TestStreamBuilderRootIsRepeatable(t *testing.T) {
	b, err := NewStreamBuilder(3)
	if err != nil {
		t.Fatalf("NewStreamBuilder: %v", err)
	}
	for _, v := range leafValues(3) {
		if err := b.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	first, err := b.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	second, err := b.Root()
	if err != nil {
		t.Fatalf("Root (second call): %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("Root is not idempotent")
	}
}

func TestStreamBuilderQuickEquivalence(t *testing.T) {
	f := func(nSeed uint16) bool {
		n := int(nSeed%500) + 1
		values := leafValues(n)
		tree, err := Build(values)
		if err != nil {
			return false
		}
		b, err := NewStreamBuilder(n)
		if err != nil {
			return false
		}
		for _, v := range values {
			if err := b.Add(v); err != nil {
				return false
			}
		}
		got, err := b.Root()
		if err != nil {
			return false
		}
		return bytes.Equal(got, tree.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// One option list serves every builder (core hands its tree options to all
// of them), so a StreamBuilder accepts WithParallelism and builds serially.
// The tests below hold it to the root a Build sharded by the same option
// commits to, over leaf counts around powers of two, at and past the size
// where Build starts sharding.

// TestStreamBuilderShardedMatchesSerial sweeps leaf counts (powers of two,
// off-by-ones, tiny trees) against a grid of parallelism degrees: the
// sharded Build and the serial stream must agree bit for bit.
func TestStreamBuilderShardedMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200, 257, 1024, 1031} {
		values := leafValues(n)
		for _, p := range []int{1, 2, 3, 4, 7, 8, 16} {
			t.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(t *testing.T) {
				want := mustBuild(t, values, WithParallelism(p)).Root()
				b, err := NewStreamBuilder(n, WithParallelism(p))
				if err != nil {
					t.Fatalf("NewStreamBuilder: %v", err)
				}
				for _, v := range values {
					if err := b.Add(v); err != nil {
						t.Fatalf("Add: %v", err)
					}
				}
				got, err := b.Root()
				if err != nil {
					t.Fatalf("Root: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("stream root %x != tree root %x", got, want)
				}
			})
		}
	}
}

// TestStreamBuilderShardedQuick is the randomized equivalence property over
// (n, p) pairs, with variable-length leaf values.
func TestStreamBuilderShardedQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	f := func(nSeed uint16, pSeed uint8) bool {
		n := int(nSeed%2000) + 1
		p := int(pSeed%10) + 1
		values := make([][]byte, n)
		for i := range values {
			values[i] = make([]byte, rng.Intn(40)+1)
			rng.Read(values[i])
		}
		tree, err := Build(values, WithParallelism(p))
		if err != nil {
			return false
		}
		b, err := NewStreamBuilder(n, WithParallelism(p))
		if err != nil {
			return false
		}
		for _, v := range values {
			if err := b.Add(v); err != nil {
				return false
			}
		}
		got, err := b.Root()
		if err != nil {
			return false
		}
		return bytes.Equal(got, tree.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamBuilderShardedErrorSemantics pins that WithParallelism leaves the
// builder's contract alone: nil leaves and overflow rejected up front,
// ErrIncomplete before all leaves arrive, idempotent Root after.
func TestStreamBuilderShardedErrorSemantics(t *testing.T) {
	b, err := NewStreamBuilder(8, WithParallelism(4))
	if err != nil {
		t.Fatalf("NewStreamBuilder: %v", err)
	}
	if err := b.Add(nil); !errors.Is(err, ErrNilLeaf) {
		t.Fatalf("Add(nil): err = %v, want ErrNilLeaf", err)
	}
	if _, err := b.Root(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("early Root: err = %v, want ErrIncomplete", err)
	}
	values := leafValues(8)
	for _, v := range values {
		if err := b.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := b.Add([]byte("extra")); !errors.Is(err, ErrTooManyLeaves) {
		t.Fatalf("extra Add: err = %v, want ErrTooManyLeaves", err)
	}
	first, err := b.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	second, err := b.Root()
	if err != nil {
		t.Fatalf("Root (second call): %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("Root is not idempotent")
	}
	if want := mustBuild(t, values).Root(); !bytes.Equal(first, want) {
		t.Fatalf("stream root %x != tree root %x", first, want)
	}
}

// TestStreamBuilderShardedVariableHasher pins that WithParallelism leaves the
// hasher rule alone: a hasher whose Sum length disagrees with Size() is
// refused with ErrHasherSize, and a fixed-size one (md5) commits to the root a
// serial Build does.
func TestStreamBuilderShardedVariableHasher(t *testing.T) {
	const n = 77
	if _, err := NewStreamBuilder(n, WithHasher(newVariableHash), WithParallelism(4)); !errors.Is(err, ErrHasherSize) {
		t.Fatalf("variable-size hasher: err = %v, want ErrHasherSize", err)
	}
	values := leafValues(n)
	b, err := NewStreamBuilder(n, WithHasher(md5.New), WithParallelism(4))
	if err != nil {
		t.Fatalf("NewStreamBuilder: %v", err)
	}
	for _, v := range values {
		if err := b.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	got, err := b.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	if want := mustBuild(t, values, WithHasher(md5.New)).Root(); !bytes.Equal(got, want) {
		t.Fatalf("md5 stream root %x != serial tree root %x", got, want)
	}
}

// FuzzStreamBuilderMatchesBuild fuzzes the stream builder against Build
// under the same option: random leaf count, random per-leaf sizes carved
// from the fuzz input, random parallelism (which Build honours and the
// stream builder ignores).
func FuzzStreamBuilderMatchesBuild(f *testing.F) {
	f.Add(uint16(1), uint8(0), []byte{0x01})
	f.Add(uint16(5), uint8(3), []byte("hello fuzzer"))
	f.Add(uint16(64), uint8(4), bytes.Repeat([]byte{0xAB}, 64))
	f.Add(uint16(1031), uint8(9), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, nSeed uint16, pSeed uint8, data []byte) {
		n := int(nSeed%1500) + 1
		p := int(pSeed % 12)
		values := make([][]byte, n)
		for i := range values {
			// Carve variable-length leaves out of the fuzz data; empty
			// leaves are legal, nil is not.
			if len(data) == 0 {
				values[i] = []byte{}
				continue
			}
			take := int(data[0])%7 + 1
			if take > len(data) {
				take = len(data)
			}
			values[i] = data[:take]
			data = data[take:]
		}
		tree, err := Build(values, WithParallelism(p))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		b, err := NewStreamBuilder(n, WithParallelism(p))
		if err != nil {
			t.Fatalf("NewStreamBuilder: %v", err)
		}
		for i, v := range values {
			if err := b.Add(v); err != nil {
				t.Fatalf("Add(%d): %v", i, err)
			}
		}
		got, err := b.Root()
		if err != nil {
			t.Fatalf("Root: %v", err)
		}
		if want := tree.Root(); !bytes.Equal(got, want) {
			t.Fatalf("n=%d p=%d: stream root %x != tree root %x", n, p, got, want)
		}
	})
}
