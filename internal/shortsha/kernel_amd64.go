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

// kernelSupported reports whether the CPU has the SHA extensions and the
// SSSE3 and SSE4.1 shuffles the kernel uses.
func kernelSupported() bool

// useKernel selects the kernel over the portable path; the tests clear it to
// compare the two.
var useKernel = kernelSupported()
