//go:build !race

package grid

import "testing"

// TestWindowDigestAllocs pins each window helper to the one digest it
// returns: the message is laid out on the stack and hashed by
// shortsha.Sum256, not fed to a fresh digest per call. Excluded from race
// builds, whose runtime allocates on its own.
func TestWindowDigestAllocs(t *testing.T) {
	results := [][]byte{{1, 2}, []byte("abc")}
	indices := []uint64{5, 1 << 33}
	spec := windowSpec(4, 2)
	for name, fn := range map[string]func(){
		"streamDigest":     func() { _ = streamDigest(7, SchemeCBS, []byte("root")) },
		"hashResults":      func() { _ = hashResults(results) },
		"hashIndices":      func() { _ = hashIndices(indices) },
		"windowCursorSeed": func() { _ = windowCursorSeed(spec) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs > 1 {
			t.Errorf("%s allocates %.0f objects, want 1 (its digest)", name, allocs)
		}
	}
}
