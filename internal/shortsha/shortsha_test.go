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

// path is one way this build and CPU can hash: the flags it sets.
type path struct {
	name            string
	kernel, lanes16 bool
}

// paths lists the portable path and every kernel this build and CPU have.
func paths() []path {
	ps := []path{{name: "portable"}}
	if useKernel {
		ps = append(ps, path{name: "kernel", kernel: true})
	}
	if useLanes16 {
		ps = append(ps, path{name: "avx512", kernel: useKernel, lanes16: true})
	}
	if useLanes16 && useKernel {
		// A CPU with AVX-512 but no SHA-NI hashes Batch's leftovers portably.
		ps = append(ps, path{name: "avx512-portable", lanes16: true})
	}
	return ps
}

// forEachPath runs check on every path of paths(), so every test below is
// a differential between the kernels, the portable path and crypto/sha256
// in the test itself. The kernel path is the SHA-NI one; the avx512 path
// hashes Batch's full groups in sixteen lanes and the rest as the kernel
// path does, or portably on a CPU without SHA-NI.
func forEachPath(t *testing.T, check func(t *testing.T)) {
	t.Helper()
	savedKernel, savedLanes16 := useKernel, useLanes16
	defer func() { useKernel, useLanes16 = savedKernel, savedLanes16 }()
	for _, p := range paths() {
		useKernel, useLanes16 = p.kernel, p.lanes16
		t.Run(p.name, check)
	}
}

// TestKernelPath logs which paths this build and CPU hash on, so a CI log
// says whether the runner ran the kernels.
func TestKernelPath(t *testing.T) {
	for _, p := range paths() {
		t.Logf("path %s", p.name)
	}
	if !useLanes16 {
		t.Log("no sixteen-lane kernel in this build or on this CPU")
	}
	if !useKernel {
		t.Log("no SHA-NI kernel in this build or on this CPU")
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

// chainLengths are the first links' lengths the Chain test covers: f's
// 16-byte input, a digest, and the padding edges.
var chainLengths = []int{0, 16, 32, 55, 56, 64, 119, 120, 200}

// TestChainMatchesCryptoSHA256 runs Chain for rounds 0-8 (0 is one hash).
func TestChainMatchesCryptoSHA256(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for rounds := 0; rounds <= 8; rounds++ {
			for _, n := range chainLengths {
				msg := message(n, 0)
				if got, want := Chain(msg, rounds), refChain(msg, rounds); got != want {
					t.Fatalf("Chain(%d B, %d) = %x, want %x", n, rounds, got, want)
				}
			}
		}
	})
}

// batchStride lays the test batches' messages out with a gap, so a kernel
// that assumed stride == n would read the wrong bytes.
const batchStride = maxTail + 5

// batchMessages returns k messages of every length up to maxTail, message
// i at i*batchStride, distinct in every byte position.
func batchMessages(k int) []byte {
	return message(k*batchStride, 0x3c)
}

// TestBatchMatchesCryptoSHA256 takes every batch size 1-40 (full groups of
// sixteen, then pairs and a single), every message length 0-119 (one block
// or two, the padding edges at 55/56 and 63/64, every n%4 of the last
// partial word, and the lengths under a word that the sixteen lanes leave
// to SHA-NI) and chain rounds 1-8.
func TestBatchMatchesCryptoSHA256(t *testing.T) {
	const maxK, maxRounds = 40, 8
	msgs := batchMessages(maxK)
	// want[n][i][r] is message i of n bytes hashed r+1 times.
	want := make([][maxK][maxRounds][Size]byte, maxTail+1)
	for n := range want {
		for i := range maxK {
			d := sha256.Sum256(msgs[i*batchStride : i*batchStride+n])
			for r := range maxRounds {
				want[n][i][r] = d
				d = sha256.Sum256(d[:])
			}
		}
	}
	dst := make([]byte, maxK*Size)
	forEachPath(t, func(t *testing.T) {
		for n := range want {
			for rounds := 1; rounds <= maxRounds; rounds++ {
				for k := 1; k <= maxK; k++ {
					clear(dst)
					Batch(dst[:k*Size], msgs, batchStride, n, rounds)
					for i := range k {
						if got := dst[i*Size : (i+1)*Size]; string(got) != string(want[n][i][rounds-1][:]) {
							t.Fatalf("Batch of %d × %d B, %d rounds: message %d = %x, want %x",
								k, n, rounds, i, got, want[n][i][rounds-1])
						}
					}
					if rest := dst[k*Size:]; string(rest) != string(make([]byte, len(rest))) {
						t.Fatalf("Batch of %d × %d B wrote past its %d digests", k, n, k)
					}
				}
			}
		}
	})
}

// TestBatchLongMessages covers messages too long for the sixteen lanes'
// two blocks: their heads are compressed in place, two lanes at a time.
func TestBatchLongMessages(t *testing.T) {
	const k = 19
	msgs := message(k*300, 0x11)
	dst := make([]byte, k*Size)
	forEachPath(t, func(t *testing.T) {
		for _, n := range []int{120, 128, 200, 300} {
			Batch(dst, msgs, 300, n, 3)
			for i := range k {
				if want := refChain(msgs[i*300:i*300+n], 3); string(dst[i*Size:(i+1)*Size]) != string(want[:]) {
					t.Fatalf("Batch of %d × %d B: message %d = %x, want %x", k, n, i, dst[i*Size:(i+1)*Size], want)
				}
			}
		}
	})
}

// TestMessagesAreNotWritten: the entry points read their messages only,
// including a head compressed in place.
func TestMessagesAreNotWritten(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		m0, m1 := message(300, 0), message(67*Lanes, 1)
		c0, c1 := message(300, 0), message(67*Lanes, 1)
		var dst [Lanes * Size]byte
		Sum256(m0)
		Chain(m0, 3)
		Batch(dst[:2*Size], m0, 150, 150, 2)
		Batch(dst[:], m1, 67, 67, 3)
		if string(m0) != string(c0) || string(m1) != string(c1) {
			t.Fatal("an entry point wrote to its message")
		}
	})
}

// FuzzShortSum is the kernel's differential against crypto/sha256 over
// every entry point: a buffer cut into a batch of equal-length messages at
// a stride of up to 255 bytes past their length — the Merkle scratch's 19 B
// nodes at stride 67 among them — handed to Batch ending at the last
// message's last byte, and a round count.
func FuzzShortSum(f *testing.F) {
	for _, n := range []int{0, 55, 56, 64, 119, 120, 200} {
		f.Add(message(17*n+3, 0), uint8(n), uint8(n+1), uint8(n%5))
	}
	f.Add(message(Lanes*67, 0), uint8(19), uint8(67-19), uint8(0))
	f.Fuzz(func(t *testing.T, buf []byte, msgLen, gap, rounds uint8) {
		r := int(rounds % 9)
		n := min(int(msgLen), len(buf))
		stride := n + int(gap)
		k := 1
		if stride > 0 {
			k += (len(buf) - n) / stride
		}
		k = min(k, 3*Lanes+3)
		msgs := buf[:(k-1)*stride+n]
		want := make([]byte, 0, k*Size)
		for i := range k {
			d := refChain(msgs[i*stride:i*stride+n], r)
			want = append(want, d[:]...)
		}
		sum, chained := sha256.Sum256(buf), refChain(buf, r)
		got := make([]byte, k*Size)
		forEachPath(t, func(t *testing.T) {
			if d := Sum256(buf); d != sum {
				t.Fatalf("Sum256 = %x, want %x", d, sum)
			}
			if d := Chain(buf, r); d != chained {
				t.Fatalf("Chain(%d) = %x, want %x", r, d, chained)
			}
			Batch(got, msgs, stride, n, r)
			if string(got) != string(want) {
				t.Fatalf("Batch of %d × %d B at stride %d, %d rounds = %x, want %x", k, n, stride, r, got, want)
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

// laneRuns are the runs this system hashes, at the strides its callers lay
// them out at: sixteen of f's leaves (a 16-byte input, four links, packed),
// and sixteen Merkle nodes over leaves (19 B, one block) and over digests
// (67 B, two blocks), each in a 67-byte slot of the tree's node scratch.
var laneRuns = []struct {
	name              string
	n, stride, rounds int
}{{"leaf", 16, 16, 4}, {"leafnode", 19, 67, 1}, {"node", 67, 67, 1}}

// BenchmarkLanes prices the lanes at laneRuns, as one Batch and as sixteen
// single calls. b.N counts runs.
func BenchmarkLanes(b *testing.B) {
	var dst [Lanes * Size]byte
	for _, c := range laneRuns {
		msgs := message(Lanes*c.stride, 0)
		forEachPathB(b, c.name+"/batch", func(b *testing.B) {
			for b.Loop() {
				Batch(dst[:], msgs, c.stride, c.n, c.rounds)
			}
		})
		b.Run(c.name+"/single", func(b *testing.B) {
			for b.Loop() {
				for i := range Lanes {
					Chain(msgs[i*c.stride:i*c.stride+c.n], c.rounds)
				}
			}
		})
	}
}

// forEachPathB is forEachPath for a benchmark.
func forEachPathB(b *testing.B, name string, bench func(b *testing.B)) {
	savedKernel, savedLanes16 := useKernel, useLanes16
	defer func() { useKernel, useLanes16 = savedKernel, savedLanes16 }()
	for _, p := range paths() {
		useKernel, useLanes16 = p.kernel, p.lanes16
		b.Run(name+"/"+p.name, bench)
	}
}

// BenchmarkFloor records what the kernels cannot go below: 64-byte
// compressions with no padding or readout of the entry points, on one
// SHA-NI lane ("block", one compression per op) and on two ("block2", two
// per op), and the sixteen-lane kernel called directly on laneRuns
// ("lanes16/<run>", sixteen messages per op, gathered where they lie,
// padded in registers and scattered out). ROADMAP quotes the per-lane
// figures.
func BenchmarkFloor(b *testing.B) {
	if useKernel {
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
	if useLanes16 {
		var dst [Lanes * Size]byte
		for _, c := range laneRuns {
			msgs := message(Lanes*c.stride, 2)
			b.Run("lanes16/"+c.name, func(b *testing.B) {
				for b.Loop() {
					lanes16(&dst, &msgs[0], c.stride, c.n, c.rounds-1)
				}
			})
		}
	}
	if !useKernel && !useLanes16 {
		b.Skip("no kernel in this build or on this CPU")
	}
}
