package grid

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// testdata/golden_runs.json holds what the serial and dialogue task-run
// paths produced at commit 11229f1, the last one that had them
// (Supervisor.RunTask, Supervisor.RunReplicated, SupervisorPool.RunTasks and
// the simulator's serial scheduler). Those paths were the reference of the
// *MatchesSerial / *MatchesDialogue tests; with one task-run path left, the
// recorded results are. Bytes are not recorded: frame sizes differ between
// a bare dialogue and a window-1 session by design, verdicts may not.

// goldenOutcome is the scheduling-independent part of a TaskOutcome.
type goldenOutcome struct {
	TaskID      uint64
	Replica     int
	Verdict     Verdict
	Reports     []Report
	VerifyEvals int64
	CheatIndex  int64
}

func goldenOutcomeOf(o *TaskOutcome) goldenOutcome {
	return goldenOutcome{o.Task.ID, o.Replica, o.Verdict, o.Reports, o.VerifyEvals, o.CheatIndex}
}

// goldenParticipant is the scheduling-independent part of a
// ParticipantSummary.
type goldenParticipant struct {
	ID, Behavior              string
	Cheater                   bool
	Tasks, Accepted, Rejected int
	FEvals                    int64
	Blacklisted               bool
}

// goldenSim is the part of a SimReport the serial scheduler determined.
type goldenSim struct {
	TaskVerdicts                                   []TaskVerdict
	Reports                                        []Report
	TasksAssigned                                  int
	CheatersDetected, CheatersTotal, HonestAccused int
	SupervisorEvals                                int64
	Participants                                   []goldenParticipant
}

func goldenSimOf(r *SimReport) goldenSim {
	g := goldenSim{
		TaskVerdicts:     r.TaskVerdicts,
		Reports:          r.Reports,
		TasksAssigned:    r.TasksAssigned,
		CheatersDetected: r.CheatersDetected,
		CheatersTotal:    r.CheatersTotal,
		HonestAccused:    r.HonestAccused,
		SupervisorEvals:  r.SupervisorEvals,
	}
	for _, p := range r.Participants {
		g.Participants = append(g.Participants, goldenParticipant{
			p.ID, p.Behavior, p.Cheater, p.Tasks, p.Accepted, p.Rejected, p.FEvals, p.Blacklisted})
	}
	return g
}

// goldenRuns is the file's schema: outcome lists and simulator reports,
// each keyed by the test that asserts it (and a seed, for the three-seed
// blacklist config).
type goldenRuns struct {
	Outcomes map[string][]goldenOutcome
	Sims     map[string]goldenSim
}

const goldenRunsPath = "testdata/golden_runs.json"

func loadGoldenRuns(t *testing.T) goldenRuns {
	t.Helper()
	data, err := os.ReadFile(goldenRunsPath)
	if err != nil {
		t.Fatalf("read golden runs: %v", err)
	}
	var g goldenRuns
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("decode golden runs: %v", err)
	}
	return g
}

// normalizeGolden round-trips v through JSON so that a value built in the
// test compares equal to one decoded from the file (nil and empty slices
// encode alike).
func normalizeGolden[T any](t *testing.T, v T) T {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// assertGoldenOutcomes checks outcomes (in the recorded order) against the
// named golden list.
func assertGoldenOutcomes(t *testing.T, name string, got []goldenOutcome) {
	t.Helper()
	want, ok := loadGoldenRuns(t).Outcomes[name]
	if !ok {
		t.Fatalf("no golden outcomes recorded for %q", name)
	}
	if got = normalizeGolden(t, got); !reflect.DeepEqual(got, want) {
		t.Errorf("%s diverges from the recorded serial run:\nrecorded: %+v\ngot:      %+v", name, want, got)
	}
}

// assertGoldenSim checks a simulator report against the named golden one.
func assertGoldenSim(t *testing.T, name string, report *SimReport) {
	t.Helper()
	want, ok := loadGoldenRuns(t).Sims[name]
	if !ok {
		t.Fatalf("no golden simulation recorded for %q", name)
	}
	if got := normalizeGolden(t, goldenSimOf(report)); !reflect.DeepEqual(got, want) {
		t.Errorf("%s diverges from the recorded serial run:\nrecorded: %+v\ngot:      %+v", name, want, got)
	}
}
