//go:build !amd64 || purego

package shortsha

// useKernel and useLanes16 are false where no kernel is assembled: every
// entry point is crypto/sha256.Sum256 per message, and the kernel functions
// are never called.
var (
	useKernel  = false
	useLanes16 = false
)

func block(h *[8]uint32, p []byte) { panic("shortsha: no kernel") }

func block2(h0, h1 *[8]uint32, p0, p1 []byte) { panic("shortsha: no kernel") }

func chain(h *[8]uint32, links int) { panic("shortsha: no kernel") }

func chain2(h0, h1 *[8]uint32, links int) { panic("shortsha: no kernel") }

func lanes16(dst *[Lanes * Size]byte, msgs *byte, stride, n, links int) {
	panic("shortsha: no kernel")
}
