package shortsha

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"fmt"
	"testing"
)

// message returns n deterministic bytes.
func message(n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*131 + 7)
	}
	return msg
}

// checkSplits compares Sum256 and a State fed msg in two parts, split at
// every offset, against crypto/sha256. One State serves every split, so a
// Sum that failed to leave it empty shows as a wrong digest on the next.
func checkSplits(t *testing.T, s *State, msg []byte) {
	t.Helper()
	want := sha256.Sum256(msg)
	if got := Sum256(msg); got != want {
		t.Fatalf("Sum256 of %d bytes = %x, want %x", len(msg), got, want)
	}
	for split := 0; split <= len(msg); split++ {
		s.Write(msg[:split])
		s.Write(msg[split:])
		if got := s.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Fatalf("%d bytes split at %d: %x, want %x", len(msg), split, got, want)
		}
	}
}

// TestMatchesCryptoSHA256 covers every length through five blocks, so every
// padding edge — 55/56 bytes (one block or two), 63/64, 119/120 (the
// buffer's own edge) and the flushes of longer messages — meets every split
// point.
func TestMatchesCryptoSHA256(t *testing.T) {
	s := New()
	for n := 0; n <= 320; n++ {
		checkSplits(t, s, message(n))
	}
}

// TestSumAppendsAndAliases: Sum appends to dst, and a chain that writes a
// digest's bytes and sums over them in place gives H(H(m)).
func TestSumAppendsAndAliases(t *testing.T) {
	s := Get()
	defer Put(s)
	s.Write([]byte("abc"))
	got := s.Sum([]byte("prefix"))
	want := sha256.Sum256([]byte("abc"))
	if !bytes.Equal(got, append([]byte("prefix"), want[:]...)) {
		t.Fatalf("Sum(prefix) = %x", got)
	}
	state := got[len("prefix"):]
	s.Write(state)
	state = s.Sum(state[:0])
	if twice := sha256.Sum256(want[:]); !bytes.Equal(state, twice[:]) {
		t.Fatalf("H(H(abc)) in place = %x, want %x", state, twice)
	}
}

// TestResetDiscardsAMessage: a State reset mid-message hashes the next one
// alone, however much of the first it had buffered or flushed.
func TestResetDiscardsAMessage(t *testing.T) {
	s := New()
	for _, n := range []int{1, 64, 127, 128, 300} {
		s.Write(message(n))
		s.Reset()
		s.Write([]byte("next"))
		if got, want := s.Sum(nil), sha256.Sum256([]byte("next")); !bytes.Equal(got, want[:]) {
			t.Fatalf("after resetting %d bytes: %x, want %x", n, got, want)
		}
	}
}

// TestInitRefusesOtherDigests: the readout is SHA-256's encoding, so only
// its digest is accepted.
func TestInitRefusesOtherDigests(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Init(sha256.New224()) did not panic")
		}
	}()
	new(State).Init(sha256.New224())
}

func FuzzShortSum(f *testing.F) {
	for _, n := range []int{0, 55, 56, 64, 119, 120, 200} {
		f.Add(message(n))
	}
	s := New()
	f.Fuzz(func(t *testing.T, msg []byte) {
		checkSplits(t, s, msg)
	})
}

// BenchmarkSum256 sets the kernel beside crypto/sha256.Sum256 at the
// message sizes this system hashes: a task seed, a hash-chain link and a
// Merkle node of two digests. "state" reuses one State, as the Merkle
// builders and f's chains do; "pooled" is the one-shot Sum256, which adds a
// pool borrow.
func BenchmarkSum256(b *testing.B) {
	for _, n := range []int{16, 32, 67} {
		msg := message(n)
		b.Run(fmt.Sprintf("state/%dB", n), func(b *testing.B) {
			s := New()
			var out [Size]byte
			for b.Loop() {
				s.Write(msg)
				s.Sum(out[:0])
			}
		})
		b.Run(fmt.Sprintf("pooled/%dB", n), func(b *testing.B) {
			for b.Loop() {
				Sum256(msg)
			}
		})
		b.Run(fmt.Sprintf("crypto/%dB", n), func(b *testing.B) {
			for b.Loop() {
				sha256.Sum256(msg)
			}
		})
	}
}

// BenchmarkFloor records what this package cannot go below with
// crypto/sha256 underneath, so a later profile can be priced against it:
// "block" is one 64-byte compression through the digest's Write and nothing
// else; "readout" adds what a State's Sum pays once per message — the
// chaining value read with AppendBinary and the digest Reset — to one such
// block; "state" is the whole Write + Sum at the sizes this system hashes (a
// 16-byte task seed or link of f's chain and a 32-byte hash-chain step are
// one block, a 67-byte Merkle node two). A message of k blocks costs k ×
// block + (readout − block); a State that reads within a few ns of that has
// no wrapper left to remove, and going lower means a faster block function —
// assembly, which the module does not carry.
func BenchmarkFloor(b *testing.B) {
	block := message(blockSize)
	b.Run("block", func(b *testing.B) {
		d := sha256.New()
		for b.Loop() {
			d.Write(block)
		}
	})
	b.Run("readout", func(b *testing.B) {
		d := sha256.New()
		enc := d.(encoding.BinaryAppender)
		buf := make([]byte, 0, 128)
		for b.Loop() {
			d.Write(block)
			buf, _ = enc.AppendBinary(buf[:0])
			d.Reset()
		}
	})
	for _, n := range []int{16, 32, 67} {
		msg := message(n)
		b.Run(fmt.Sprintf("state/%dB", n), func(b *testing.B) {
			s := New()
			var out [Size]byte
			for b.Loop() {
				s.Write(msg)
				s.Sum(out[:0])
			}
		})
	}
}
