// Package shortsha computes SHA-256 at the price of its compressions. Every
// hash this system takes is one or two blocks long — a Merkle node, a link
// of f's chain, a hash-chain step, a task seed — and for messages that
// short crypto/sha256's per-call wrapper (Sum's copy of the digest, the
// padding Write, the copy into its block buffer) costs about as much as the
// compression itself. A State skips the wrapper and keeps the block
// function.
//
// Padding. FIPS 180-4 §5.1.1 pads an ℓ-bit message m to a multiple of 512
// bits: m, one 1 bit, the fewest 0 bits that leave 64 bits of the last
// block free, and ℓ as a 64-bit big-endian integer. A State buffers m in a
// two-block array inside the struct, writes that padding behind it itself,
// and hands the digest only whole padded blocks, so the digest's Write goes
// straight to the block function and never buffers. A message of at most
// 119 bytes is one Write of one or two blocks; a longer one flushes whole
// blocks as its buffer fills.
//
// Readout. SHA-256(m) is the chaining value after the last block of pad(m)
// is compressed — the eight state words, big-endian. The digest's
// encoding.BinaryAppender form is a 4-byte magic, those eight words
// big-endian, the partial block and the length; crypto/sha256 keeps that
// layout stable so saved states restore across releases. Once pad(m) has
// been written the partial block is empty and bytes 4..36 of the encoding
// are SHA-256(m).
//
// Nothing a caller passes crosses an interface: only the State's own buffer
// goes to the digest, so a State allocates nothing per message, and the
// pooled Sum256 nothing per call.
package shortsha

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"
)

// Size is the length of a SHA-256 digest in bytes.
const Size = sha256.Size

const (
	blockSize = sha256.BlockSize
	// lenSize is the trailing bit-length field of a padded message.
	lenSize = 8
	// stateOff is where the chaining value starts in the digest's binary
	// encoding, after the "sha\x03" magic.
	stateOff = 4
)

// State hashes one message at a time with SHA-256: Write absorbs the
// message, Sum appends its digest and readies the State for the next one.
// A State is not safe for concurrent use; the zero State is unusable — get
// one from New or Get, or bind one with Init.
type State struct {
	d   hash.Hash
	enc encoding.BinaryAppender
	// n counts the bytes buffered in buf; total counts the whole message.
	n     int
	total uint64
	buf   [2 * blockSize]byte
}

// New returns a State over a fresh crypto/sha256 digest.
func New() *State {
	s := new(State)
	s.Init(sha256.New())
	return s
}

// Init binds s to d, a digest from crypto/sha256.New, which s then owns:
// a caller that already holds a SHA-256 digest keeps one hash state, not
// two. It panics if d cannot encode its state.
func (s *State) Init(d hash.Hash) {
	enc, ok := d.(encoding.BinaryAppender)
	if !ok || d.Size() != Size || d.BlockSize() != blockSize {
		panic("shortsha: Init needs a crypto/sha256 digest")
	}
	*s = State{d: d, enc: enc}
	d.Reset()
}

// Write absorbs p into the message.
func (s *State) Write(p []byte) {
	s.total += uint64(len(p))
	for {
		c := copy(s.buf[s.n:], p)
		if s.n += c; s.n < len(s.buf) {
			return
		}
		s.d.Write(s.buf[:])
		s.n, p = 0, p[c:]
	}
}

// Sum appends SHA-256 of the message written since the last Sum to dst and
// returns the result. dst may alias anything already written. The State is
// then empty, ready for the next message.
func (s *State) Sum(dst []byte) []byte {
	n := s.n
	if n+1+lenSize > len(s.buf) {
		// The padding does not fit behind the last 120..127 bytes: compress
		// the first block now and pad the second.
		s.d.Write(s.buf[:blockSize])
		n = copy(s.buf[:], s.buf[blockSize:n])
	}
	end := blockSize
	if n+1+lenSize > blockSize {
		end = 2 * blockSize
	}
	s.buf[n] = 0x80
	clear(s.buf[n+1 : end-lenSize])
	binary.BigEndian.PutUint64(s.buf[end-lenSize:end], s.total<<3)
	s.d.Write(s.buf[:end])
	enc, _ := s.enc.AppendBinary(s.buf[:0])
	dst = append(dst, enc[stateOff:stateOff+Size]...)
	s.Reset()
	return dst
}

// Reset discards the message written so far.
func (s *State) Reset() {
	s.d.Reset()
	s.n, s.total = 0, 0
}

var pool = sync.Pool{New: func() any { return New() }}

// Get borrows an empty State from a process-wide pool, for a caller that
// hashes several messages in a row (a chain of them, or one in parts).
// Hand it back with Put.
func Get() *State { return pool.Get().(*State) }

// Put returns a State taken from Get. The State must not be used again.
func Put(s *State) {
	s.Reset()
	pool.Put(s)
}

// Sum256 returns SHA-256 of msg, as crypto/sha256.Sum256 does, on a pooled
// State.
func Sum256(msg []byte) [Size]byte {
	s := Get()
	s.Write(msg)
	var sum [Size]byte
	s.Sum(sum[:0])
	pool.Put(s) // Sum left it empty
	return sum
}
