package grid

import (
	"errors"
	"strings"
	"testing"
)

func baseSimConfig(kind SchemeKind) SimConfig {
	cfg := SimConfig{
		Spec:         SchemeSpec{Kind: kind, M: 20, ChainIters: 1},
		Workload:     "synthetic",
		Seed:         1,
		TaskSize:     128,
		Tasks:        12,
		Honest:       3,
		SemiHonest:   3,
		HonestyRatio: 0.3,
	}
	return cfg
}

func TestSimCBSDetectsCheatersNoFalsePositives(t *testing.T) {
	report, err := RunSim(baseSimConfig(SchemeCBS))
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if report.CheatersTotal != 3 {
		t.Fatalf("CheatersTotal = %d, want 3", report.CheatersTotal)
	}
	// r=0.3, m=20 → survival 0.3^20 ≈ 3e-11 per task; every cheater that
	// got a task is caught.
	if report.CheatersDetected != report.CheatersTotal {
		t.Fatalf("detected %d of %d cheaters", report.CheatersDetected, report.CheatersTotal)
	}
	if report.HonestAccused != 0 {
		t.Fatalf("HonestAccused = %d, want 0 (Theorem 1)", report.HonestAccused)
	}
	if report.DetectionRate() != 1 {
		t.Fatalf("DetectionRate = %v", report.DetectionRate())
	}
}

func TestSimAllSchemesRun(t *testing.T) {
	for _, kind := range []SchemeKind{SchemeCBS, SchemeNICBS, SchemeNaive, SchemeDoubleCheck, SchemeRinger} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := baseSimConfig(kind)
			if kind == SchemeRinger {
				cfg.Workload = "password" // ringers need a one-way f
			}
			if kind == SchemeDoubleCheck {
				cfg.Replicas = 3 // a pair cannot attribute blame
			}
			report, err := RunSim(cfg)
			if err != nil {
				t.Fatalf("RunSim: %v", err)
			}
			if report.TasksAssigned == 0 {
				t.Fatal("no tasks ran")
			}
			if report.Scheme != kind.String() {
				t.Fatalf("Scheme = %q", report.Scheme)
			}
			if report.HonestAccused != 0 {
				t.Fatalf("%d honest participants accused", report.HonestAccused)
			}
			if report.CheatersDetected == 0 {
				t.Fatal("no cheaters detected at r=0.3")
			}
		})
	}
}

func TestSimCommunicationOrdering(t *testing.T) {
	// Per-participant upload: CBS ≪ naive for the same tasks.
	cbsCfg := baseSimConfig(SchemeCBS)
	cbsCfg.SemiHonest = 0
	cbsCfg.Honest = 2
	cbsCfg.TaskSize = 8192 // the O(n)/O(m log n) gap needs n ≫ m
	cbsCfg.Tasks = 2
	naiveCfg := cbsCfg
	naiveCfg.Spec = SchemeSpec{Kind: SchemeNaive, M: 20}

	cbsReport, err := RunSim(cbsCfg)
	if err != nil {
		t.Fatalf("RunSim(cbs): %v", err)
	}
	naiveReport, err := RunSim(naiveCfg)
	if err != nil {
		t.Fatalf("RunSim(naive): %v", err)
	}
	if cbsReport.SupervisorBytesRecv*4 > naiveReport.SupervisorBytesRecv {
		t.Fatalf("CBS supervisor download %dB not ≪ naive %dB",
			cbsReport.SupervisorBytesRecv, naiveReport.SupervisorBytesRecv)
	}
}

func TestSimBlacklistStopsAssigningToCheats(t *testing.T) {
	cfg := baseSimConfig(SchemeCBS)
	cfg.Blacklist = true
	cfg.Tasks = 24
	report, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	for _, p := range report.Participants {
		if p.Cheater && p.Rejected > 1 {
			t.Fatalf("blacklisted cheater %s still received %d rejections", p.ID, p.Rejected)
		}
		if p.Cheater && p.Rejected == 1 && !p.Blacklisted {
			t.Fatalf("rejected cheater %s not blacklisted", p.ID)
		}
	}
}

func TestSimMaliciousPopulation(t *testing.T) {
	cfg := SimConfig{
		Spec:              SchemeSpec{Kind: SchemeCBS, M: 30},
		Workload:          "synthetic",
		Seed:              3,
		TaskSize:          256,
		Tasks:             8,
		Honest:            2,
		Malicious:         2,
		CorruptProb:       0.9,
		CrossCheckReports: true,
	}
	report, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if report.CheatersDetected == 0 {
		t.Fatal("no malicious participant detected despite cross-checking")
	}
	if report.HonestAccused != 0 {
		t.Fatalf("HonestAccused = %d", report.HonestAccused)
	}
}

func TestSimPasswordWorkloadFindsSecret(t *testing.T) {
	cfg := SimConfig{
		Spec:     SchemeSpec{Kind: SchemeCBS, M: 10},
		Workload: "password",
		Seed:     11,
		TaskSize: 1 << 10,
		Tasks:    1 << 20 >> 10 / 16, // cover 1/16 of a 2^20 keyspace... keep small
		Honest:   2,
	}
	cfg.Tasks = 8
	report, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	// The hidden key may or may not fall in the covered prefix; reports,
	// when present, must mention the password.
	for _, rep := range report.Reports {
		if !strings.Contains(rep.S, "password found") {
			t.Fatalf("unexpected report %q", rep.S)
		}
	}
}

func TestSimValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*SimConfig)
	}{
		{name: "no workload", mutate: func(c *SimConfig) { c.Workload = "" }},
		{name: "no tasks", mutate: func(c *SimConfig) { c.Tasks = 0 }},
		{name: "no task size", mutate: func(c *SimConfig) { c.TaskSize = 0 }},
		{name: "empty pool", mutate: func(c *SimConfig) { c.Honest, c.SemiHonest, c.Malicious = 0, 0, 0 }},
		{name: "bad spec", mutate: func(c *SimConfig) { c.Spec.M = 0 }},
		{name: "double-check with routes", mutate: func(c *SimConfig) {
			c.Spec.Kind, c.Broker, c.Routes = SchemeDoubleCheck, true, 8
		}},
		{name: "double-check with blacklist", mutate: func(c *SimConfig) { c.Spec.Kind, c.Blacklist = SchemeDoubleCheck, true }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseSimConfig(SchemeCBS)
			tt.mutate(&cfg)
			if _, err := RunSim(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}

	dc := baseSimConfig(SchemeDoubleCheck)
	dc.Honest, dc.SemiHonest = 1, 0
	if _, err := RunSim(dc); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("double-check with one participant: err = %v, want ErrBadConfig", err)
	}
}

func TestSimHonestEffortAccounting(t *testing.T) {
	cfg := baseSimConfig(SchemeCBS)
	cfg.SemiHonest = 0
	cfg.Honest = 1
	cfg.Tasks = 2
	cfg.TaskSize = 100
	report, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	p := report.Participants[0]
	if p.FEvals < int64(cfg.Tasks*cfg.TaskSize) {
		t.Fatalf("FEvals = %d, want >= %d", p.FEvals, cfg.Tasks*cfg.TaskSize)
	}
	if p.Tasks != 2 || p.Accepted != 2 {
		t.Fatalf("participant summary %+v", p)
	}
	if report.SupervisorEvals == 0 {
		t.Fatal("supervisor spent no verification effort")
	}
}
