//go:build !race

package shortsha

import "testing"

// TestZeroAllocs pins the kernel's point: no entry point allocates, at any
// padding shape, batch size or stride, on any path. Excluded from race
// builds, whose runtime allocates on its own.
func TestZeroAllocs(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		var dst [(2*Lanes + 3) * Size]byte
		for _, n := range []int{16, 67, 125, 300} {
			msg := message(n, 0)
			msgs := message(len(dst)/Size*n, 1)
			const gap = 51
			strided := message(len(dst)/Size*(n+gap), 2)
			for name, run := range map[string]func(){
				"Sum256":        func() { Sum256(msg) },
				"Chain":         func() { Chain(msg, 4) },
				"Batch":         func() { Batch(dst[:], msgs, n, n, 4) },
				"Batch strided": func() { Batch(dst[:], strided, n+gap, n, 1) },
			} {
				if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
					t.Errorf("%s of %d bytes allocates %.0f objects, want 0", name, n, allocs)
				}
			}
		}
	})
}
