package grid

import (
	"errors"
	"os"
	"reflect"
	"testing"
)

func baseStreamConfig(t *testing.T) SimConfig {
	t.Helper()
	return SimConfig{
		Spec:           SchemeSpec{Kind: SchemeCBS, M: 8, ChainIters: 1, WindowTasks: 4, WindowSamples: 2},
		Workload:       "synthetic",
		Seed:           7,
		TaskSize:       64,
		Tasks:          24,
		Honest:         2,
		SemiHonest:     1,
		HonestyRatio:   0.3,
		PipelineWindow: 2,
	}
}

// scrubStreamReport zeroes the fields that legitimately vary between a clean
// run and a kill-and-restart run: connection byte counters depend on frame
// coalescing timing, and broker counters cover only the final attempt's hub.
// The per-task tagged byte totals stay: framing cannot move them.
func scrubStreamReport(r *SimReport) *SimReport {
	c := *r
	c.SupervisorBytesSent, c.SupervisorBytesRecv = 0, 0
	c.Broker = nil
	c.Participants = append([]ParticipantSummary(nil), r.Participants...)
	for i := range c.Participants {
		c.Participants[i].BytesSent, c.Participants[i].BytesRecv = 0, 0
	}
	return &c
}

func TestRunSimStreamWindows(t *testing.T) {
	cfg := baseStreamConfig(t)
	report, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if len(report.TaskVerdicts) != cfg.Tasks {
		t.Fatalf("got %d verdicts, want %d", len(report.TaskVerdicts), cfg.Tasks)
	}
	if report.CheatersDetected != 1 || report.HonestAccused != 0 {
		t.Fatalf("detected %d cheaters, accused %d honest", report.CheatersDetected, report.HonestAccused)
	}
	if report.WindowsSettled == 0 {
		t.Fatal("no windows settled")
	}
	if report.WindowViolations != 0 {
		t.Fatalf("%d window violations in a faithful-commitment run", report.WindowViolations)
	}
	// Every decided task is either inside a settled window or pending.
	covered := report.WindowsSettled*uint64(cfg.Spec.WindowTasks) + uint64(report.WindowsPending)
	if covered != uint64(cfg.Tasks) {
		t.Fatalf("windows cover %d tasks, want %d", covered, cfg.Tasks)
	}
}

func TestRunSimCheckpointRestoreMatchesClean(t *testing.T) {
	for _, broker := range []bool{false, true} {
		name := "direct"
		if broker {
			name = "broker"
		}
		t.Run(name, func(t *testing.T) {
			clean := baseStreamConfig(t)
			clean.Broker = broker
			clean.CheckpointEvery = 8
			clean.CheckpointDir = t.TempDir()
			cleanReport, err := RunSim(clean)
			if err != nil {
				t.Fatalf("clean RunSim: %v", err)
			}

			killed := clean
			killed.CheckpointDir = t.TempDir()
			killed.KillAfter = 13 // mid-segment: restart re-runs tasks 8..12
			killedReport, err := RunSim(killed)
			if err != nil {
				t.Fatalf("killed RunSim: %v", err)
			}

			if !reflect.DeepEqual(scrubStreamReport(cleanReport), scrubStreamReport(killedReport)) {
				t.Fatalf("kill-and-restart report diverged from clean run:\nclean:  %+v\nkilled: %+v",
					scrubStreamReport(cleanReport), scrubStreamReport(killedReport))
			}
			if killedReport.WindowsSettled != cleanReport.WindowsSettled {
				t.Fatalf("windows settled: killed %d, clean %d",
					killedReport.WindowsSettled, cleanReport.WindowsSettled)
			}
		})
	}
}

func TestRunSimParticipantCrashRestoreMatchesClean(t *testing.T) {
	for _, broker := range []bool{false, true} {
		name := "direct"
		if broker {
			name = "broker"
		}
		t.Run(name, func(t *testing.T) {
			clean := baseStreamConfig(t)
			clean.Broker = broker
			clean.CheckpointEvery = 8
			clean.CheckpointDir = t.TempDir()
			cleanReport, err := RunSim(clean)
			if err != nil {
				t.Fatalf("clean RunSim: %v", err)
			}

			killed := clean
			killed.CheckpointDir = t.TempDir()
			killed.KillAfter = 13 // mid-segment: restored pool re-runs tasks 8..12
			killed.KillTarget = KillTargetParticipant
			killedReport, err := RunSim(killed)
			if err != nil {
				t.Fatalf("killed RunSim: %v", err)
			}

			// The supervisor survives a participant crash and honestly pays
			// for re-verifying the aborted segment, so its eval counter may
			// exceed the clean run's; everything else — verdicts, reports,
			// window accounting, participant totals — must match exactly.
			if killedReport.SupervisorEvals < cleanReport.SupervisorEvals {
				t.Fatalf("crashed run verified less than clean: %d < %d evals",
					killedReport.SupervisorEvals, cleanReport.SupervisorEvals)
			}
			cs, ks := scrubStreamReport(cleanReport), scrubStreamReport(killedReport)
			cs.SupervisorEvals, ks.SupervisorEvals = 0, 0
			if !reflect.DeepEqual(cs, ks) {
				t.Fatalf("participant crash-and-restore report diverged from clean run:\nclean:  %+v\ncrashed: %+v", cs, ks)
			}
		})
	}
}

func TestRunSimParticipantCrashAtSegmentBoundary(t *testing.T) {
	clean := baseStreamConfig(t)
	clean.CheckpointEvery = 8
	clean.CheckpointDir = t.TempDir()
	cleanReport, err := RunSim(clean)
	if err != nil {
		t.Fatalf("clean RunSim: %v", err)
	}
	killed := clean
	killed.CheckpointDir = t.TempDir()
	killed.KillAfter = 16 // exactly a boundary: the pool dies freshly checkpointed
	killed.KillTarget = KillTargetParticipant
	killedReport, err := RunSim(killed)
	if err != nil {
		t.Fatalf("killed RunSim: %v", err)
	}
	cs, ks := scrubStreamReport(cleanReport), scrubStreamReport(killedReport)
	cs.SupervisorEvals, ks.SupervisorEvals = 0, 0
	if !reflect.DeepEqual(cs, ks) {
		t.Fatal("boundary participant crash-and-restore report diverged from clean run")
	}
}

func TestRunSimCheckpointKillAtSegmentBoundary(t *testing.T) {
	clean := baseStreamConfig(t)
	clean.CheckpointEvery = 8
	clean.CheckpointDir = t.TempDir()
	cleanReport, err := RunSim(clean)
	if err != nil {
		t.Fatalf("clean RunSim: %v", err)
	}
	killed := clean
	killed.CheckpointDir = t.TempDir()
	killed.KillAfter = 16 // exactly a segment boundary: kill after the barrier
	killedReport, err := RunSim(killed)
	if err != nil {
		t.Fatalf("killed RunSim: %v", err)
	}
	if !reflect.DeepEqual(scrubStreamReport(cleanReport), scrubStreamReport(killedReport)) {
		t.Fatal("boundary kill-and-restart report diverged from clean run")
	}
}

func TestRunSimStreamResumesFromCheckpointDir(t *testing.T) {
	cfg := baseStreamConfig(t)
	cfg.CheckpointEvery = 8
	cfg.CheckpointDir = t.TempDir()
	first, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("first RunSim: %v", err)
	}
	// A second run over the same directory finds the run complete and
	// reassembles the identical report from durable state alone.
	second, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("second RunSim: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("resumed report differs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

func TestRunSimStreamRejectsCorruptParticipantCheckpoint(t *testing.T) {
	cfg := baseStreamConfig(t)
	cfg.CheckpointEvery = 8
	cfg.CheckpointDir = t.TempDir()
	if _, err := RunSim(cfg); err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	path := participantCheckpointPath(cfg.CheckpointDir, "honest-0")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}
	if _, err := RunSim(cfg); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt checkpoint: got %v, want ErrCheckpointCorrupt", err)
	}
}

func TestRunSimStreamValidation(t *testing.T) {
	cases := map[string]func(*SimConfig){
		"needs pipeline":       func(c *SimConfig) { c.PipelineWindow = -1 },
		"no double-check":      func(c *SimConfig) { c.Spec.Kind = SchemeDoubleCheck },
		"no faults":            func(c *SimConfig) { c.DropProb = 0.1 },
		"no routes":            func(c *SimConfig) { c.Broker = true; c.Routes = 3 },
		"no blacklist":         func(c *SimConfig) { c.Blacklist = true; c.CheckpointDir = "x" },
		"checkpoint needs dir": func(c *SimConfig) { c.CheckpointEvery = 4; c.CheckpointDir = "" },
		"kill needs checkpoints": func(c *SimConfig) {
			c.KillAfter = 5
			c.CheckpointDir = "x"
		},
		"unknown kill target": func(c *SimConfig) {
			c.KillAfter = 5
			c.CheckpointEvery = 4
			c.CheckpointDir = "x"
			c.KillTarget = "hub"
		},
		"kill target needs kill": func(c *SimConfig) { c.KillTarget = KillTargetParticipant },
		"checkpoints: no double-check": func(c *SimConfig) {
			c.Spec = SchemeSpec{Kind: SchemeDoubleCheck, M: 1}
			c.CheckpointDir = "x"
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := baseStreamConfig(t)
			mutate(&cfg)
			if _, err := RunSim(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("got %v, want ErrBadConfig", err)
			}
		})
	}
}

// TestRunSimWindowsWithBlacklist runs what the Stream-vs-Blacklist refusal
// used to forbid: window commitments on a blacklisting run. The cheater is
// caught once and never placed again, and every settled task is still
// covered by a window or pending in one.
func TestRunSimWindowsWithBlacklist(t *testing.T) {
	cfg := baseStreamConfig(t)
	cfg.Blacklist = true
	report, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if report.TasksAssigned != cfg.Tasks {
		t.Fatalf("assigned %d tasks, want %d", report.TasksAssigned, cfg.Tasks)
	}
	for _, p := range report.Participants {
		if p.Cheater && (!p.Blacklisted || p.Rejected > cfg.PipelineWindow) {
			t.Errorf("cheater %s: blacklisted=%v after %d rejections (window %d)", p.ID, p.Blacklisted, p.Rejected, cfg.PipelineWindow)
		}
	}
	if report.WindowViolations != 0 {
		t.Fatalf("%d window violations in a faithful-commitment run", report.WindowViolations)
	}
	covered := report.WindowsSettled*uint64(cfg.Spec.WindowTasks) + uint64(report.WindowsPending)
	if covered != uint64(cfg.Tasks) {
		t.Fatalf("windows cover %d tasks, want %d", covered, cfg.Tasks)
	}
}
