package main

import (
	"bytes"
	"strings"
	"testing"
)

// runGridsim invokes the CLI entry point with the given flags and returns
// its output.
func runGridsim(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, args); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	return buf.String()
}

func TestRunSmallSimulation(t *testing.T) {
	out := runGridsim(t,
		"-scheme", "cbs", "-tasks", "2", "-tasksize", "256",
		"-honest", "1", "-semihonest", "1", "-m", "20")
	for _, want := range []string{"scheme=cbs", "supervisor:", "honest-0", "semihonest-0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "detection=1/1") {
		t.Errorf("semi-honest cheater not detected at m=20:\n%s", out)
	}
}

func TestRunDerivesSampleCountFromEpsilon(t *testing.T) {
	out := runGridsim(t,
		"-scheme", "cbs", "-tasks", "1", "-tasksize", "128",
		"-honest", "1", "-semihonest", "0", "-m", "0", "-epsilon", "1e-4")
	if !strings.Contains(out, "derived from Eq. 3") {
		t.Errorf("missing Eq. 3 derivation note:\n%s", out)
	}
}

func TestRunAllSchemes(t *testing.T) {
	schemes := map[string][]string{
		"cbs":          nil,
		"ni-cbs":       nil,
		"naive":        nil,
		"ringer":       nil,
		"double-check": {"-honest", "3", "-replicas", "3"},
	}
	for scheme, extra := range schemes {
		t.Run(scheme, func(t *testing.T) {
			args := append([]string{
				"-scheme", scheme, "-tasks", "1", "-tasksize", "128",
				"-honest", "3", "-semihonest", "0", "-m", "5",
			}, extra...)
			out := runGridsim(t, args...)
			if !strings.Contains(out, "scheme="+scheme) {
				t.Errorf("output missing scheme header:\n%s", out)
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-scheme", "nope"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run(&buf, []string{"-tasks", "0"}); err == nil {
		t.Error("zero tasks accepted")
	}
	if err := run(&buf, []string{"-workers", "2"}); err == nil {
		t.Error("the deleted -workers flag accepted")
	}
	doubleCheck := []string{"-scheme", "double-check", "-replicas", "3", "-honest", "3", "-semihonest", "0", "-m", "1"}
	if err := run(&buf, append(doubleCheck, "-broker", "-routes", "6", "-pipeline", "2")); err == nil {
		t.Error("-scheme double-check with -routes accepted")
	}
	if err := run(&buf, append(doubleCheck, "-blacklist")); err == nil {
		t.Error("-scheme double-check with -blacklist accepted")
	}
}

func TestRunFaultySimulation(t *testing.T) {
	// Garbles are detected by the batch checksum and recovered by
	// reconnect-and-resume; the run must converge with every task assigned
	// and the cheater still detected. A single participant pins the
	// task→participant pairing, making detection deterministic.
	out := runGridsim(t,
		"-scheme", "cbs", "-tasks", "4", "-tasksize", "128",
		"-honest", "0", "-semihonest", "1", "-m", "20", "-pipeline", "2",
		"-garble", "0.1", "-drop", "0.02", "-reconnect", "100", "-faultwait", "250ms")
	if !strings.Contains(out, "tasks=4") {
		t.Errorf("faulty run lost tasks:\n%s", out)
	}
	if !strings.Contains(out, "detection=1/1") {
		t.Errorf("cheater not detected under faults:\n%s", out)
	}
	if err := run(&bytes.Buffer{}, []string{"-drop", "1.5", "-pipeline", "2"}); err == nil {
		t.Error("out-of-range drop probability accepted")
	}
}

func TestRunPipelinedSimulation(t *testing.T) {
	// A single (cheating) participant makes detection deterministic even
	// under work stealing: every task lands on it.
	out := runGridsim(t,
		"-scheme", "cbs", "-tasks", "6", "-tasksize", "256",
		"-honest", "0", "-semihonest", "1", "-m", "20", "-pipeline", "4")
	if !strings.Contains(out, "scheme=cbs pipeline=4") {
		t.Errorf("report header missing pipeline mode:\n%s", out)
	}
	if !strings.Contains(out, "detection=1/1") {
		t.Errorf("cheater not detected under pipelining:\n%s", out)
	}
	if err := run(&bytes.Buffer{}, []string{"-pipeline", "-1"}); err == nil {
		t.Error("negative pipeline window accepted")
	}
}

func TestRunBrokeredFaultySimulation(t *testing.T) {
	// -broker routes everything through the hub; with faults on the
	// supervisor↔hub leg, redials are re-bound to the same worker and the
	// run converges with nothing lost and the cheater still detected.
	out := runGridsim(t,
		"-scheme", "cbs", "-tasks", "4", "-tasksize", "128",
		"-honest", "0", "-semihonest", "1", "-m", "20", "-pipeline", "2",
		"-broker", "-garble", "0.1", "-drop", "0.02",
		"-reconnect", "100", "-faultwait", "250ms")
	if !strings.Contains(out, "scheme=cbs pipeline=2 broker") {
		t.Errorf("report header missing broker mode:\n%s", out)
	}
	if !strings.Contains(out, "tasks=4") {
		t.Errorf("brokered faulty run lost tasks:\n%s", out)
	}
	if !strings.Contains(out, "detection=1/1") {
		t.Errorf("cheater not detected through the broker:\n%s", out)
	}
	if !strings.Contains(out, "broker: relayed=") {
		t.Errorf("report missing broker relay line:\n%s", out)
	}
}

func TestRunBrokeredReplicatedSimulation(t *testing.T) {
	// -broker composes with the replicated pipelined double-check mode.
	out := runGridsim(t,
		"-scheme", "double-check", "-replicas", "3", "-tasks", "3",
		"-tasksize", "128", "-honest", "3", "-semihonest", "0", "-m", "1",
		"-pipeline", "3", "-broker")
	if !strings.Contains(out, "scheme=double-check pipeline=3 broker") {
		t.Errorf("report header missing broker mode:\n%s", out)
	}
	if !strings.Contains(out, "tasks=9") {
		t.Errorf("brokered replicated run lost executions:\n%s", out)
	}
	if !strings.Contains(out, "honest-accused=0") {
		t.Errorf("honest replicas accused through the broker:\n%s", out)
	}
}

func TestRunReplicatedPipelinedFaultySimulation(t *testing.T) {
	// -pipeline now composes with -scheme double-check and the fault flags:
	// replica uploads pipeline inside each connection's window, comparisons
	// meet at cross-connection barriers, and faults are recovered by
	// reconnect-and-resume. All honest: every replica execution must be
	// assigned and accepted.
	out := runGridsim(t,
		"-scheme", "double-check", "-replicas", "3", "-tasks", "4",
		"-tasksize", "128", "-honest", "3", "-semihonest", "0", "-m", "1",
		"-pipeline", "3", "-garble", "0.05", "-drop", "0.01",
		"-reconnect", "100", "-faultwait", "250ms")
	if !strings.Contains(out, "scheme=double-check pipeline=3") {
		t.Errorf("report header missing replicated pipeline mode:\n%s", out)
	}
	// 4 tasks x 3 replicas = 12 executions, none lost to faults.
	if !strings.Contains(out, "tasks=12") {
		t.Errorf("replicated faulty run lost executions:\n%s", out)
	}
	if !strings.Contains(out, "honest-accused=0") {
		t.Errorf("honest replicas accused under faults:\n%s", out)
	}
}

func TestRunStreamKillTargetParticipant(t *testing.T) {
	// -killtarget participant crashes the pool mid-segment; the surviving
	// supervisor restores it from the durable checkpoints and the run still
	// settles every task and window with the cheater detected.
	args := []string{
		"-scheme", "cbs", "-tasks", "12", "-tasksize", "128",
		"-honest", "1", "-semihonest", "1", "-m", "20", "-pipeline", "2",
		"-windowtasks", "4", "-windowsamples", "2",
		"-checkevery", "4", "-checkpoint", t.TempDir(),
		"-killafter", "6", "-killtarget", "participant",
	}
	out := runGridsim(t, args...)
	if !strings.Contains(out, "tasks=12") {
		t.Errorf("participant-crash stream run lost tasks:\n%s", out)
	}
	if !strings.Contains(out, "detection=1/1") {
		t.Errorf("cheater not detected across the participant crash:\n%s", out)
	}
	// Windows are per participant link: 6 tasks each under WindowTasks=4
	// settles one window per link, matching the uninterrupted run.
	if !strings.Contains(out, "windows: settled=2 violations=0") {
		t.Errorf("window accounting diverged across the participant crash:\n%s", out)
	}
	if err := run(&bytes.Buffer{}, []string{"-killtarget", "hub"}); err == nil {
		t.Error("unknown -killtarget accepted")
	}
}

func TestRunMuxedRoutesSimulation(t *testing.T) {
	// -routes widens the supervisor fan-out beyond one-per-participant;
	// all routes are multiplexed over one physical supervisor link, so the
	// report gains the mux summary and per-route relay table.
	out := runGridsim(t,
		"-scheme", "ni-cbs", "-chainiters", "1", "-tasks", "8",
		"-tasksize", "256", "-honest", "2", "-semihonest", "1", "-m", "8",
		"-pipeline", "2", "-broker", "-routes", "6")
	if !strings.Contains(out, "tasks=8") {
		t.Errorf("muxed fan-out run lost tasks:\n%s", out)
	}
	if !strings.Contains(out, "broker mux: links=1 routes=6") {
		t.Errorf("report missing mux summary line:\n%s", out)
	}
	if !strings.Contains(out, "to-worker") || !strings.Contains(out, "to-supervisor") {
		t.Errorf("report missing per-route relay table:\n%s", out)
	}
	for _, name := range []string{"honest-0", "honest-1", "semihonest-0"} {
		if !strings.Contains(out, name) {
			t.Errorf("per-route table missing %s:\n%s", name, out)
		}
	}
	if err := run(&bytes.Buffer{}, []string{"-routes", "4"}); err == nil {
		t.Error("-routes without -broker accepted")
	}
	if err := run(&bytes.Buffer{}, []string{
		"-routes", "1", "-broker", "-pipeline", "2"}); err == nil {
		t.Error("-routes below the participant pool accepted")
	}
}
