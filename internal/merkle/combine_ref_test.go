package merkle

import "encoding/binary"

// combine is Φ of an internal node hashed the generic way: a fresh
// hs.newHash() digest, written and summed through hash.Hash. The tests use
// it as the reference the build engines must match, so for the default
// hashers it checks the SHA-256 kernel against crypto/sha256 itself.
func (hs hashers) combine(left, right []byte) []byte {
	h := hs.newHash()
	var lenBuf [binary.MaxVarintLen64]byte
	h.Write([]byte{nodePrefix})
	n := binary.PutUvarint(lenBuf[:], uint64(len(left)))
	h.Write(lenBuf[:n])
	h.Write(left)
	n = binary.PutUvarint(lenBuf[:], uint64(len(right)))
	h.Write(lenBuf[:n])
	h.Write(right)
	return h.Sum(nil)
}
