package bad

import (
	"crypto/sha256"
	"hash"
)

func seed(buf []byte) [32]byte {
	return sha256.Sum256(buf) // want "crypto/sha256.Sum256 outside internal/shortsha"
}

func digest() hash.Hash {
	return sha256.New() // want "crypto/sha256.New outside internal/shortsha"
}

// A constructor passed as a value names sha256.New just the same.
var newHash func() hash.Hash = sha256.New // want "crypto/sha256.New outside internal/shortsha"
