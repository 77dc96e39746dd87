//go:build amd64 && !purego

package shortsha

// block compresses the len(p)/64 whole blocks of p into h.
//
//go:noescape
func block(h *[8]uint32, p []byte)

// block2 compresses len(p0)/64 whole blocks of p0 into h0 and as many of p1
// into h1, in one pass. p1 must be at least as long as p0.
//
//go:noescape
func block2(h0, h1 *[8]uint32, p0, p1 []byte)

// chain applies links more links of a chain to h: each hashes the digest
// h holds, one block padded from a constant template.
//
//go:noescape
func chain(h *[8]uint32, links int)

// chain2 is chain on h0 and h1 in one pass.
//
//go:noescape
func chain2(h0, h1 *[8]uint32, links int)

// lanes16 hashes sixteen messages of n bytes each, minLanes16 <= n <=
// maxTail, lane i's at msgs[i*stride:] and read where it lies, padding
// them in registers; applies links more links of a chain to every lane; and
// writes lane i's digest to dst[i*Size:]. It reads no byte outside the
// sixteen messages. (Lanes-1)*stride must fit an int32: the gathers' lane
// offsets are 32-bit.
//
//go:noescape
func lanes16(dst *[Lanes * Size]byte, msgs *byte, stride, n, links int)

// kernelSupported reports whether the CPU has the SHA extensions and the
// SSSE3 and SSE4.1 shuffles the SHA-NI kernel uses.
func kernelSupported() bool

// lanes16Supported reports whether the CPU has AVX512F and AVX512BW and the
// operating system saves the opmask and ZMM registers (XCR0).
func lanes16Supported() bool

// useKernel selects the SHA-NI kernel over the portable path, and
// useLanes16 the sixteen-lane kernel for Batch's full groups; both are
// decided once, at startup, and the tests switch them to compare the paths.
var (
	useKernel  = kernelSupported()
	useLanes16 = lanes16Supported()
)
