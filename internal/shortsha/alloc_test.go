//go:build !race

package shortsha

import "testing"

// TestZeroAllocs pins the kernel's point: no entry point allocates, at any
// padding shape, on either path. Excluded from race builds, whose runtime
// allocates on its own.
func TestZeroAllocs(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for _, n := range []int{16, 67, 125, 300} {
			m0, m1 := message(n, 0), message(n/2, 1)
			for name, run := range map[string]func(){
				"Sum256":   func() { Sum256(m0) },
				"Sum256x2": func() { Sum256x2(m0, m1) },
				"Chain":    func() { Chain(m0, 4) },
				"Chain2":   func() { Chain2(m0, m1, 4) },
			} {
				if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
					t.Errorf("%s of %d bytes allocates %.0f objects, want 0", name, n, allocs)
				}
			}
		}
	})
}
