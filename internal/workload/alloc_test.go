//go:build !race

package workload

import "testing"

// TestAppendEvalZeroAlloc pins the append contract's point: evaluating into
// a buffer that already has room, one input or a batch, allocates nothing
// for the workloads whose evaluation is hashing or integer arithmetic.
// Excluded from race builds, whose runtime allocates on its own.
func TestAppendEvalZeroAlloc(t *testing.T) {
	for _, name := range []string{"synthetic", "password", "drugscreen", "factor"} {
		f, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		buf := f.AppendEval(nil, 0)
		x := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			x++
			buf = f.AppendEval(buf[:0], x)
		})
		if allocs != 0 {
			t.Errorf("%s: AppendEval into a warmed buffer allocates %.1f objects per call, want 0", name, allocs)
		}
		var ends [19]int
		buf = f.AppendEvalBatch(buf[:0], 0, ends[:])
		if allocs := testing.AllocsPerRun(100, func() {
			x += uint64(len(ends))
			buf = f.AppendEvalBatch(buf[:0], x, ends[:])
		}); allocs != 0 {
			t.Errorf("%s: AppendEvalBatch into a warmed buffer allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// TestAppendEvalOutputIsAppendedAlloc covers the two workloads whose
// evaluation keeps working sets of its own (signal's sample and spectrum
// slices, mersenne's big integers): the output itself must still land in the
// caller's buffer, so a warmed buffer saves exactly the one allocation the
// output would cost.
func TestAppendEvalOutputIsAppendedAlloc(t *testing.T) {
	for _, name := range []string{"signal", "mersenne"} {
		f, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		// Input 0 is a Mersenne prime at this seed (see goldenOutputs), so
		// the Lucas-Lehmer path runs.
		buf := f.AppendEval(nil, 0)
		fresh := testing.AllocsPerRun(50, func() { _ = f.AppendEval(nil, 0) })
		warmed := testing.AllocsPerRun(50, func() {
			if out := f.AppendEval(buf[:0], 0); &out[0] != &buf[0] {
				t.Fatalf("%s: output not written into the caller's buffer", name)
			}
		})
		if warmed != fresh-1 {
			t.Errorf("%s: %.0f allocations into a warmed buffer, %.0f into nil, want exactly one fewer", name, warmed, fresh)
		}
	}
}
