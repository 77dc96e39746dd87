// Package shortsha computes SHA-256 at the price of its compressions, many
// messages at a time where a caller has many. Every hash this system takes
// is one or two blocks long — a Merkle node, a link of f's chain, a
// hash-chain step, a task seed — and for messages that short crypto/sha256's
// per-call wrapper (the digest's copy, the padding Write, the copy into its
// block buffer) costs about as much as the compression itself.
//
// Entry points. Sum256 and Chain hash one message; Batch hashes k messages
// of one length laid out at a stride in one buffer, each chained the same
// number of rounds, and is the only entry that knows how many lanes a pass
// has: it cuts its batch into groups of sixteen, two and one itself. Callers
// that hash in runs — f over consecutive inputs, a Merkle level — make them
// Lanes long, and nothing outside this package names a lane count.
//
// Padding. FIPS 180-4 §5.1.1 pads an ℓ-bit message m to a multiple of 512
// bits: m, one 1 bit, the fewest 0 bits that leave 64 bits of the last
// block free, and ℓ as a 64-bit big-endian integer. The sixteen-lane kernel
// pads in registers: its sixteen messages share one length n, so it gathers
// each lane's whole words where the message lies, builds the word holding
// the last n%4 bytes and the 1 bit once from the word that ends each
// message, and sets the zero fill and the bit length without reading
// memory — it never reads a byte outside a message, and takes no message
// shorter than a word. On SHA-NI the whole blocks of a message longer than
// 119 bytes are compressed where they lie, and the rest — all of a shorter
// message — is copied into a two-block tail on the stack with the padding
// written behind it, so a message of at most 119 bytes is one kernel call
// of one or two blocks. A link of a chain hashes the previous digest, 32
// bytes, so its block is the state words followed by a constant template of
// padding: the kernels build it in registers and never read the digest back
// from memory.
//
// Readout. SHA-256(m) is the chaining value after the last block of pad(m)
// is compressed: the eight state words, big-endian. The kernels keep those
// words themselves — FIPS 180-4 §5.3.3's initial value in, the chaining
// value out — so nothing is encoded, copied or reset between messages.
//
// Lanes. SHA-NI's rounds form one serial dependency chain per message, and
// a core overlaps two such chains in part (1.13-1.25 times one lane's rate
// on the CPU ROADMAP records), so the SHA-NI kernel hashes one message or
// two interleaved round by round. AVX-512 has no SHA instructions but
// sixteen 32-bit lanes per register: the sixteen-lane kernel runs the
// rounds as plain vector arithmetic on sixteen messages at once, each
// register one state or message word of every lane, and costs about 2.2
// SHA-NI lanes' time per block for sixteen blocks (kernel_amd64.s has the
// register plan). Batch gives it groups of sixteen messages of 4 to 119
// bytes, which it gathers from the caller's buffer at the caller's stride
// and whose digests it scatters into the caller's buffer, and the rest of a
// batch to SHA-NI.
//
// Dispatch. The kernels are amd64 assembly. The SHA-NI one needs the SHA
// extensions, SSSE3 and SSE4.1; the sixteen-lane one AVX512F and AVX512BW
// with the opmask and ZMM state enabled by the operating system (XCR0).
// Both are checked once, at startup, with CPUID and XGETBV, and nothing
// else selects them. Where the SHA-NI kernel is missing, on other
// architectures and under the purego build tag every message the
// sixteen lanes do not take is crypto/sha256.Sum256, with the same results.
//
// Nothing a caller passes is retained or crosses an interface, so no entry
// point allocates.
package shortsha

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Size is the length of a SHA-256 digest in bytes.
const Size = sha256.Size

const (
	blockSize = sha256.BlockSize
	// lenSize is the trailing bit-length field of a padded message.
	lenSize = 8
	// maxTail is the longest message end the two-block tail holds with its
	// padding.
	maxTail = 2*blockSize - 1 - lenSize
)

// iv is SHA-256's initial hash value, FIPS 180-4 §5.3.3.
var iv = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// Sum256 returns SHA-256 of msg.
func Sum256(msg []byte) [Size]byte {
	if !useKernel {
		return sha256.Sum256(msg)
	}
	s := sumWords(msg)
	return digest(&s)
}

// Chain returns SHA-256 applied rounds times to msg, each link hashing the
// previous digest; rounds below 1 count as 1.
func Chain(msg []byte, rounds int) [Size]byte {
	if !useKernel {
		return portableChain(msg, rounds)
	}
	s := sumWords(msg)
	if rounds > 1 {
		chain(&s, rounds-1)
	}
	return digest(&s)
}

// Lanes is the widest batch one kernel pass hashes. A caller that hashes
// in runs — f over consecutive inputs, a Merkle level — makes its runs this
// long; Batch splits whatever it is given itself.
const Lanes = 16

// The sixteen-lane kernel takes messages of minLanes16 to maxTail bytes —
// it reads a message's last partial word from the whole word that ends it —
// at strides up to maxLaneStride, its gathers' 32-bit lane offsets.
const (
	minLanes16    = 4
	maxLaneStride = math.MaxInt32 / (Lanes - 1)
)

// Batch hashes k = len(dst)/Size messages of n bytes each, message i being
// msgs[i*stride : i*stride+n], and writes SHA-256 applied rounds times to it
// (each further round hashing the previous digest, rounds below 1 counting
// as 1) to dst[i*Size : (i+1)*Size]. It hashes them sixteen to a pass on
// AVX-512, read where they lie, when n is 4 to 119 bytes, then two to a
// pass and one at a time on SHA-NI, or one at a time on the portable path.
// It reads no byte of msgs outside the k messages. dst must not overlap
// msgs.
func Batch(dst, msgs []byte, stride, n, rounds int) {
	k := len(dst) / Size
	if k == 0 {
		return
	}
	_ = msgs[(k-1)*stride : (k-1)*stride+n]
	rounds = max(rounds, 1)
	i := 0
	if useLanes16 && n >= minLanes16 && n <= maxTail && stride <= maxLaneStride {
		for ; i+Lanes <= k; i += Lanes {
			lanes16((*[Lanes * Size]byte)(dst[i*Size:]), &msgs[i*stride], stride, n, rounds-1)
		}
	}
	if !useKernel {
		for ; i < k; i++ {
			d := portableChain(msgs[i*stride:i*stride+n], rounds)
			copy(dst[i*Size:], d[:])
		}
		return
	}
	for ; i+2 <= k; i += 2 {
		s0, s1 := sumWords2(msgs[i*stride:i*stride+n], msgs[(i+1)*stride:(i+1)*stride+n])
		if rounds > 1 {
			chain2(&s0, &s1, rounds-1)
		}
		putDigest(dst[i*Size:], &s0)
		putDigest(dst[(i+1)*Size:], &s1)
	}
	if i < k {
		s := sumWords(msgs[i*stride : i*stride+n])
		if rounds > 1 {
			chain(&s, rounds-1)
		}
		putDigest(dst[i*Size:], &s)
	}
}

// portableChain is Chain on crypto/sha256.
func portableChain(msg []byte, rounds int) [Size]byte {
	d := sha256.Sum256(msg)
	for i := 1; i < rounds; i++ {
		d = sha256.Sum256(d[:])
	}
	return d
}

// padded is the end of a message cut for the kernel, the part that is not
// compressed in place: tail[:ntail] holds the rest of the message and its
// padding, one or two blocks.
type padded struct {
	ntail int
	tail  [2 * blockSize]byte
}

// pad copies the end of msg into p and returns the head: the fewest whole
// blocks that leave at most maxTail bytes behind, none for a message of up
// to maxTail bytes, compressed where they lie.
func (p *padded) pad(msg []byte) (head []byte) {
	h := 0
	if len(msg) > maxTail {
		h = (len(msg) - maxTail + blockSize - 1) &^ (blockSize - 1)
	}
	n := copy(p.tail[:], msg[h:])
	p.tail[n] = 0x80
	p.ntail = blockSize
	if n+1+lenSize > blockSize {
		p.ntail = 2 * blockSize
	}
	binary.BigEndian.PutUint64(p.tail[p.ntail-lenSize:], uint64(len(msg))<<3)
	return msg[:h]
}

// sumWords returns the state words of SHA-256(msg).
func sumWords(msg []byte) [8]uint32 {
	var p padded
	head := p.pad(msg)
	s := iv
	if len(head) > 0 {
		block(&s, head)
	}
	block(&s, p.tail[:p.ntail])
	return s
}

// sumWords2 is sumWords of m0 and m1, two lanes while both have blocks
// left. Each lane's blocks come from its head and then its tail, so the
// pass is cut wherever either lane changes source.
func sumWords2(m0, m1 []byte) (s0, s1 [8]uint32) {
	var p0, p1 padded
	b0 := p0.pad(m0)
	b1 := p1.pad(m1)
	t0, t1 := p0.tail[:p0.ntail], p1.tail[:p1.ntail]
	s0, s1 = iv, iv
	for {
		if len(b0) == 0 {
			b0, t0 = t0, nil
		}
		if len(b1) == 0 {
			b1, t1 = t1, nil
		}
		n := min(len(b0), len(b1))
		if n == 0 {
			break
		}
		block2(&s0, &s1, b0[:n], b1[:n])
		b0, b1 = b0[n:], b1[n:]
	}
	finish(&s0, b0, t0)
	finish(&s1, b1, t1)
	return s0, s1
}

// finish compresses what is left of a lane alone: the rest of its current
// source and, when that was the head, the tail.
func finish(s *[8]uint32, b, t []byte) {
	if len(b) > 0 {
		block(s, b)
	}
	if len(t) > 0 {
		block(s, t)
	}
}

// digest reads the state words out as a digest.
func digest(s *[8]uint32) (d [Size]byte) {
	putDigest(d[:], s)
	return d
}

// putDigest writes the state words into dst as a digest.
func putDigest(dst []byte, s *[8]uint32) {
	_ = dst[Size-1]
	for i, w := range s {
		binary.BigEndian.PutUint32(dst[4*i:], w)
	}
}
