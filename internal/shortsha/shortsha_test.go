package shortsha

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// message returns n deterministic bytes; salt tells two messages of one
// length apart.
func message(n int, salt byte) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*131+7) ^ salt
	}
	return msg
}

// forEachPath runs check on the assembly lanes, when this build and CPU
// have them, and on the portable path, so every test below is a three-way
// differential: kernel, portable, and crypto/sha256 in the test itself.
func forEachPath(t *testing.T, check func(t *testing.T)) {
	t.Helper()
	saved := useKernel
	defer func() { useKernel = saved }()
	paths := []bool{false}
	if saved {
		paths = append(paths, true)
	} else {
		t.Log("no kernel in this build or on this CPU: portable path only")
	}
	for _, kernel := range paths {
		useKernel = kernel
		name := "portable"
		if kernel {
			name = "kernel"
		}
		t.Run(name, check)
	}
}

// refChain is SHA-256 applied rounds times (at least once), on crypto/sha256.
func refChain(msg []byte, rounds int) [Size]byte {
	d := sha256.Sum256(msg)
	for i := 1; i < rounds; i++ {
		d = sha256.Sum256(d[:])
	}
	return d
}

// TestMatchesCryptoSHA256 covers every Sum256 length through five blocks,
// so every padding edge — 55/56 bytes (one block or two), 63/64, 119/120
// (the tail's own edge) and the in-place heads of longer messages — is met.
func TestMatchesCryptoSHA256(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for n := 0; n <= 320; n++ {
			msg := message(n, 0)
			if got, want := Sum256(msg), sha256.Sum256(msg); got != want {
				t.Fatalf("Sum256 of %d bytes = %x, want %x", n, got, want)
			}
		}
	})
}

// TestSum256x2MatchesCryptoSHA256 takes every pair of lengths through
// 160 bytes: lanes of equal and of different block counts, heads of
// different lengths, and each lane finishing alone.
func TestSum256x2MatchesCryptoSHA256(t *testing.T) {
	msgs := make([][2][]byte, 161)
	for n := range msgs {
		msgs[n] = [2][]byte{message(n, 0), message(n, 0x5a)}
	}
	forEachPath(t, func(t *testing.T) {
		for a := range msgs {
			for b := range msgs {
				m0, m1 := msgs[a][0], msgs[b][1]
				d0, d1 := Sum256x2(m0, m1)
				if want := sha256.Sum256(m0); d0 != want {
					t.Fatalf("Sum256x2(%d B, %d B) lane 0 = %x, want %x", a, b, d0, want)
				}
				if want := sha256.Sum256(m1); d1 != want {
					t.Fatalf("Sum256x2(%d B, %d B) lane 1 = %x, want %x", a, b, d1, want)
				}
			}
		}
	})
}

// chainLengths are the first links' lengths the chain tests pair up: f's
// 16-byte input, a digest, and the padding edges.
var chainLengths = []int{0, 16, 32, 55, 56, 64, 119, 120, 200}

// TestChainMatchesCryptoSHA256 runs Chain and Chain2 for rounds 0-8 (0 is
// one hash) over every pair of chainLengths.
func TestChainMatchesCryptoSHA256(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for rounds := 0; rounds <= 8; rounds++ {
			for _, a := range chainLengths {
				m0 := message(a, 0)
				want0 := refChain(m0, rounds)
				if got := Chain(m0, rounds); got != want0 {
					t.Fatalf("Chain(%d B, %d) = %x, want %x", a, rounds, got, want0)
				}
				for _, b := range chainLengths {
					m1 := message(b, 0x5a)
					d0, d1 := Chain2(m0, m1, rounds)
					if want1 := refChain(m1, rounds); d0 != want0 || d1 != want1 {
						t.Fatalf("Chain2(%d B, %d B, %d) = %x, %x; want %x, %x", a, b, rounds, d0, d1, want0, want1)
					}
				}
			}
		}
	})
}

// TestMessagesAreNotWritten: the entry points read their messages only,
// including a head compressed in place.
func TestMessagesAreNotWritten(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		m0, m1 := message(300, 0), message(67, 1)
		c0, c1 := message(300, 0), message(67, 1)
		Sum256(m0)
		Sum256x2(m0, m1)
		Chain2(m1, m0, 3)
		if string(m0) != string(c0) || string(m1) != string(c1) {
			t.Fatal("an entry point wrote to its message")
		}
	})
}

// FuzzShortSum is the kernel's differential against crypto/sha256 over
// every entry point: two messages of any lengths and a round count.
func FuzzShortSum(f *testing.F) {
	for _, n := range []int{0, 55, 56, 64, 119, 120, 200} {
		f.Add(message(n, 0), message(n/2, 1), uint8(n%5))
	}
	f.Fuzz(func(t *testing.T, m0, m1 []byte, rounds uint8) {
		r := int(rounds % 9)
		want0, want1 := sha256.Sum256(m0), sha256.Sum256(m1)
		chain0, chain1 := refChain(m0, r), refChain(m1, r)
		forEachPath(t, func(t *testing.T) {
			if got := Sum256(m0); got != want0 {
				t.Fatalf("Sum256 = %x, want %x", got, want0)
			}
			if d0, d1 := Sum256x2(m0, m1); d0 != want0 || d1 != want1 {
				t.Fatalf("Sum256x2 = %x, %x; want %x, %x", d0, d1, want0, want1)
			}
			if got := Chain(m0, r); got != chain0 {
				t.Fatalf("Chain(%d) = %x, want %x", r, got, chain0)
			}
			if d0, d1 := Chain2(m0, m1, r); d0 != chain0 || d1 != chain1 {
				t.Fatalf("Chain2(%d) = %x, %x; want %x, %x", r, d0, d1, chain0, chain1)
			}
		})
	})
}

// BenchmarkSum256 sets the kernel beside crypto/sha256.Sum256 at the
// message sizes this system hashes: a task seed or a link of f's chain, a
// hash-chain step and a Merkle node of two digests.
func BenchmarkSum256(b *testing.B) {
	for _, n := range []int{16, 32, 67} {
		msg := message(n, 0)
		b.Run(fmt.Sprintf("kernel/%dB", n), func(b *testing.B) {
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

// BenchmarkLanes prices the second lane: a pair of Merkle nodes (67 B, two
// blocks each) and a pair of f's leaves (a 16-byte input, four links) in
// one pass and one lane at a time. A pair in one pass costs less than two
// one at a time by what the core overlaps.
func BenchmarkLanes(b *testing.B) {
	node0, node1 := message(67, 0), message(67, 1)
	b.Run("node/x2", func(b *testing.B) {
		for b.Loop() {
			Sum256x2(node0, node1)
		}
	})
	b.Run("node/x1x1", func(b *testing.B) {
		for b.Loop() {
			Sum256(node0)
			Sum256(node1)
		}
	})
	in0, in1 := message(16, 0), message(16, 1)
	b.Run("leaf/x2", func(b *testing.B) {
		for b.Loop() {
			Chain2(in0, in1, 4)
		}
	})
	b.Run("leaf/x1x1", func(b *testing.B) {
		for b.Loop() {
			Chain(in0, 4)
			Chain(in1, 4)
		}
	})
}

// BenchmarkFloor records what the kernel cannot go below: one 64-byte
// compression per call, on one lane ("block") and on two ("block2", two
// compressions per op). The entry points add their padding and readout to
// that; ROADMAP quotes the per-lane figures.
func BenchmarkFloor(b *testing.B) {
	if !useKernel {
		b.Skip("no kernel in this build or on this CPU")
	}
	p0, p1 := message(blockSize, 0), message(blockSize, 1)
	b.Run("block", func(b *testing.B) {
		s := iv
		for b.Loop() {
			block(&s, p0)
		}
	})
	b.Run("block2", func(b *testing.B) {
		s0, s1 := iv, iv
		for b.Loop() {
			block2(&s0, &s1, p0, p1)
		}
	})
}
