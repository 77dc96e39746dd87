package good

import (
	"crypto/sha256"
	"hash"
)

// Size and the other constants are not a hashing path.
const digestLen = sha256.Size

// Hasher mirrors merkle.Hasher: the default constructor is named once, by
// directive.
type Hasher func() hash.Hash

func defaultHasher() Hasher {
	//gridlint:ignore shortsha the default Hasher a WithHasher option replaces
	return sha256.New
}

// SHA-224 is another function, and nothing here computes it per message.
func other() hash.Hash { return sha256.New224() }
