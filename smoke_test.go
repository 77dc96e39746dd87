package uncheatgrid

import (
	"os/exec"
	"testing"
)

// TestExamplesSmoke compiles and runs every example program end to end.
// The examples exercise the public API the way a new user would, so a
// regression anywhere on the re-exported surface fails tier-1 here rather
// than in a reader's terminal.
func TestExamplesSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, name := range []string{"quickstart", "passwordsearch", "drugscreen", "setisearch", "signalwatch"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+name).CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("example %s produced no output", name)
			}
		})
	}
}

// TestGridsimSmoke builds and runs the gridsim binary with a tiny
// concurrent simulation — the CLI's own tests cover flags in depth; this
// catches main()-level wiring regressions.
func TestGridsimSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command("go", "run", "./cmd/gridsim",
		"-tasks", "2", "-tasksize", "128", "-honest", "2", "-semihonest", "0",
		"-m", "5", "-pipeline", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/gridsim: %v\n%s", err, out)
	}
}
