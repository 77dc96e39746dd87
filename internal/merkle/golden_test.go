package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestRootsAndMultiproofsMatchRecorded pins the tree's bytes across changes
// to how nodes are hashed: the roots and the SHA-256 of one three-sample
// multiproof's wire bytes were recorded from the crypto/sha256 engine that
// preceded the shortsha kernel, over leaves i·φ (8 bytes big-endian).
func TestRootsAndMultiproofsMatchRecorded(t *testing.T) {
	for _, g := range []struct {
		n           int
		root, proof string
	}{
		{1, "0000000000000000", "8126152c9db9aa8c7b90278feb37b8024c264346767822e385a1c8f8cd3dde84"},
		{2, "78335b84ec3104409d79c8c343379170fefb0ecb3fde9d7e6d57771eb29d21c9", "5fce04a82580c0c6a444d77b1630448d5cb1a6038352b4abe8194d9868677fd7"},
		{3, "4d769bfd0cfedd48b26ff15e946a9b494fe22d651e4752e88f251ec63b6e50f2", "bf078e064d783bf48afd085b151964716fd2d8e2847ea44ddf843659dedb5d46"},
		{64, "51108df47e5a1da822ccd4ad49e5d9483bcbd097039b3f0107e3ed1b51bec7c6", "1f906a8d0d1a183f6f5968a13247cedc4d4c7d90d9c52e1d0934b5beec5df4d9"},
		{16384, "d8967867551460a22437c135f0c559a764b37823e33ffe2370ab68b8d48b914c", "fc4ac572b5be96d603064c0012a8004b40721a45d08998ae7e589acf44950e9f"},
	} {
		values := make([][]byte, g.n)
		for i := range values {
			values[i] = binary.BigEndian.AppendUint64(nil, uint64(i)*0x9e3779b97f4a7c15)
		}
		tree, err := Build(values)
		if err != nil {
			t.Fatalf("n=%d: Build: %v", g.n, err)
		}
		if got := hex.EncodeToString(tree.Root()); got != g.root {
			t.Errorf("n=%d: root %s, recorded %s", g.n, got, g.root)
		}
		mp, err := tree.ProveMulti([]uint64{0, uint64(g.n / 2), uint64(g.n - 1)})
		if err != nil {
			t.Fatalf("n=%d: ProveMulti: %v", g.n, err)
		}
		wire, err := mp.MarshalBinary()
		if err != nil {
			t.Fatalf("n=%d: MarshalBinary: %v", g.n, err)
		}
		if got := sha256.Sum256(wire); hex.EncodeToString(got[:]) != g.proof {
			t.Errorf("n=%d: multiproof bytes hash to %x, recorded %s", g.n, got, g.proof)
		}
		if err := NewProofVerifier().VerifyMulti(tree.Root(), &mp); err != nil {
			t.Errorf("n=%d: VerifyMulti: %v", g.n, err)
		}
	}
}
