//go:build !race

package grid

import (
	"testing"

	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/workload"
)

// commitPathAllocBound is what one honest NI-CBS commit-and-respond may
// allocate, whatever the task size: the tree (arena, leaf slab, offsets),
// the claim scratch, the chain walk (hash state, chain state, indices), the
// multiproof's slabs and the three payloads. No term in n — f's outputs are
// appended into the scratch and copied into the slab — and none in m.
const commitPathAllocBound = 48

// TestCommitPathAllocs pins the participant's commit path to that constant
// at two task sizes, so a per-leaf allocation cannot hide inside a slack
// that grows with n. Excluded from race builds, whose runtime allocates on
// its own.
func TestCommitPathAllocs(t *testing.T) {
	spec := SchemeSpec{Kind: SchemeNICBS, M: 8, ChainIters: 1}
	chain, err := hashchain.New(spec.ChainIters)
	if err != nil {
		t.Fatalf("hashchain.New: %v", err)
	}
	for _, n := range []uint64{1024, 8192} {
		exec, _ := newCommitExecution(t, n, spec, nil)
		conn := &scriptConn{}
		allocs := testing.AllocsPerRun(10, func() {
			if err := exec.runCBS(conn, true, chain, nil); err != nil {
				t.Fatalf("runCBS: %v", err)
			}
		})
		if allocs > commitPathAllocBound {
			t.Errorf("NI-CBS commit-and-respond over %d inputs allocates %.0f objects, want <= %d at every n",
				n, allocs, commitPathAllocBound)
		}
	}
}

// TestVerifyEvalsZeroAlloc pins the supervisor's side of the same contract:
// the m recomputations of one task's output check land in the task's one
// scratch buffer, so after the first none of them allocates.
func TestVerifyEvalsZeroAlloc(t *testing.T) {
	const m = 32
	task := Task{ID: 1, Start: 1000, N: 1 << 14, Workload: "synthetic", Seed: 11}
	f, err := workload.New(task.Workload, task.Seed)
	if err != nil {
		t.Fatalf("workload.New: %v", err)
	}
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: m}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	tr := sup.newTaskRun(task)
	check := tr.checkFuncFor(task, f)
	claimed := make([][]byte, m)
	for k := range claimed {
		claimed[k] = f.Eval(task.Start + uint64(k)*500)
	}
	verify := func() {
		for k, value := range claimed {
			if err := check(uint64(k)*500, value); err != nil {
				t.Fatalf("check(%d): %v", k, err)
			}
		}
	}
	verify() // the first evaluation sizes the scratch
	if allocs := testing.AllocsPerRun(10, verify); allocs != 0 {
		t.Fatalf("checking %d samples allocates %.1f objects after the first, want 0", m, allocs)
	}
}
