//go:build !race

package grid

import (
	"testing"

	"uncheatgrid/internal/hashchain"
)

// TestCommitPathAllocs pins the participant's commit path: one honest NI-CBS
// commit-and-respond allocates f's own outputs — one per evaluation, n of
// them — plus a fixed handful (tree arena, leaf slab, offsets, proof slabs,
// payloads) and two per sample for the hash chain's steps, which is m's
// cost, kept small here. Nothing else on the path may scale with n.
// Excluded from race builds, whose runtime allocates on its own.
func TestCommitPathAllocs(t *testing.T) {
	const n = 1024
	spec := SchemeSpec{Kind: SchemeNICBS, M: 8, ChainIters: 1}
	exec, _ := newCommitExecution(t, n, spec, nil)
	chain, err := hashchain.New(spec.ChainIters)
	if err != nil {
		t.Fatalf("hashchain.New: %v", err)
	}
	conn := &scriptConn{}
	allocs := testing.AllocsPerRun(10, func() {
		if err := exec.runCBS(conn, true, chain, nil); err != nil {
			t.Fatalf("runCBS: %v", err)
		}
	})
	if allocs > n+64 {
		t.Fatalf("NI-CBS commit-and-respond over %d inputs allocates %.0f objects, want <= n + 64", n, allocs)
	}
}
