//go:build !race

package cheat

import (
	"runtime"
	"testing"

	"uncheatgrid/internal/workload"
)

// TestSemiHonestGuessAllocs pins the price of cheating: a fabricated leaf
// costs the guess's own bytes and nothing else — no generator seeded per
// input (math/rand's default source was a 607-word table, ~5 kB per guess),
// no rand.Rand per input. Counted, not timed. Excluded from race builds,
// whose runtime allocates on its own.
func TestSemiHonestGuessAllocs(t *testing.T) {
	const n = 4096
	f, err := workload.New("synthetic", 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s, err := NewSemiHonest(f, 0.5, 9)
	if err != nil {
		t.Fatalf("NewSemiHonest: %v", err)
	}
	guessed := 0
	for x := uint64(0); x < n; x++ {
		if !s.HonestOn(x) {
			guessed++
		}
	}
	var buf []byte
	pass := func() {
		for x := uint64(0); x < n; x++ {
			buf = s.AppendClaim(buf[:0], x)
		}
	}
	pass() // warm buf and the stream pool

	objects := testing.AllocsPerRun(5, pass) / float64(guessed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / float64(guessed)
	if objects > 2 || bytesPer >= 64 {
		t.Fatalf("a pass over %d inputs (%d guessed) allocates %.2f objects and %.1f B per guessed input, want <= 2 and < 64 B",
			n, guessed, objects, bytesPer)
	}
}
