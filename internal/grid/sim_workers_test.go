package grid

import (
	"fmt"
	"testing"
)

// workersSimConfig is a mixed population: 6 honest, 3 semi-honest, 1
// malicious over 20 CBS tasks, at the given session window.
func workersSimConfig(window int) SimConfig {
	return SimConfig{
		Spec:              SchemeSpec{Kind: SchemeCBS, M: 20},
		Workload:          "synthetic",
		Seed:              11,
		TaskSize:          256,
		Tasks:             20,
		Honest:            6,
		SemiHonest:        3,
		Malicious:         1,
		HonestyRatio:      0.3,
		CorruptProb:       1,
		CrossCheckReports: true,
		PipelineWindow:    window,
	}
}

// TestSimPooledMatchesSerial is the end-to-end determinism check: the
// simulation must reproduce what the serial scheduler recorded for it
// (golden_runs.json) — participants, verdicts, reports, eval counts — at
// window 1 and, since the pairing does not depend on the window, at 8.
func TestSimPooledMatchesSerial(t *testing.T) {
	for _, window := range []int{1, 8} {
		report, err := RunSim(workersSimConfig(window))
		if err != nil {
			t.Fatalf("RunSim(window %d): %v", window, err)
		}
		assertGoldenSim(t, "TestSimPooledMatchesSerial", report)
		if report.CheatersDetected != report.CheatersTotal {
			t.Errorf("detection %d/%d; expected all cheaters caught at m=20",
				report.CheatersDetected, report.CheatersTotal)
		}
		if report.HonestAccused != 0 {
			t.Errorf("%d honest participants accused", report.HonestAccused)
		}
	}
}

// TestSimPooledBlacklistMatchesSerial pins the stronger guarantee: even
// with blacklisting (where scheduling depends on verdicts), a window-1 run —
// ten participants verified at once — assigns tasks to exactly the
// participants the serial scheduler did (golden_runs.json), because
// placement waits on a participant whose task is undecided instead of
// looking past it.
func TestSimPooledBlacklistMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := workersSimConfig(1)
		cfg.Seed = seed
		cfg.Blacklist = true
		report, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("RunSim(seed=%d): %v", seed, err)
		}
		assertGoldenSim(t, fmt.Sprintf("TestSimPooledBlacklistMatchesSerial/seed=%d", seed), report)
	}
}

// TestSimPooledBlacklist checks the run blacklists and terminates cleanly
// when the whole pool ends up dropped.
func TestSimPooledBlacklist(t *testing.T) {
	cfg := workersSimConfig(1)
	cfg.Honest = 0
	cfg.Malicious = 0
	cfg.SemiHonest = 4
	cfg.Blacklist = true
	report, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if report.CheatersDetected != 4 {
		t.Fatalf("detected %d/4 cheaters", report.CheatersDetected)
	}
	for _, p := range report.Participants {
		if !p.Blacklisted {
			t.Errorf("participant %s not blacklisted", p.ID)
		}
	}
	// A participant holds one undecided task at a time, so at most two
	// rounds over the 4 participants can run before the pool is empty.
	if report.TasksAssigned > 8 {
		t.Errorf("assigned %d tasks to an all-cheater pool; blacklisting ineffective", report.TasksAssigned)
	}
}

// TestSimPooledAllSchemes exercises a window-8 run under every
// non-replicated scheme.
func TestSimPooledAllSchemes(t *testing.T) {
	for _, kind := range []SchemeKind{SchemeCBS, SchemeNICBS, SchemeNaive, SchemeRinger} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := workersSimConfig(8)
			cfg.Spec.Kind = kind
			cfg.Spec.ChainIters = 1
			report, err := RunSim(cfg)
			if err != nil {
				t.Fatalf("RunSim(%v): %v", kind, err)
			}
			if report.TasksAssigned != cfg.Tasks {
				t.Fatalf("assigned %d tasks, want %d", report.TasksAssigned, cfg.Tasks)
			}
		})
	}
}
