//go:build !race

package shortsha

import "testing"

// TestZeroAllocs pins the kernel's point: a State and the pooled Sum256
// allocate nothing per message, at every padding shape. Excluded from race
// builds, whose runtime allocates on its own and whose pools drop entries.
func TestZeroAllocs(t *testing.T) {
	s := New()
	var out [Size]byte
	for _, n := range []int{16, 67, 125, 300} {
		msg := message(n)
		if allocs := testing.AllocsPerRun(100, func() {
			s.Write(msg)
			s.Sum(out[:0])
		}); allocs != 0 {
			t.Errorf("State.Sum of %d bytes allocates %.0f objects, want 0", n, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { out = Sum256(msg) }); allocs != 0 {
			t.Errorf("Sum256 of %d bytes allocates %.0f objects, want 0", n, allocs)
		}
	}
}
