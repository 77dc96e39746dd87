package grid

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"uncheatgrid/internal/transport"
)

// replicaDigest is the comparable core of one replica outcome.
type replicaDigest struct {
	TaskID  uint64
	Replica int
	Verdict Verdict
}

// TestRunTaskSourceReplicatedMatchesRunReplicated is the pipelined
// double-check acceptance test at the pool level: a replicated window-3
// stream must yield, per (task, replica), the verdicts the serial barrier —
// upload after upload on one connection after another, then one comparison
// — produced for the same tasks, seeds and personas (golden_runs.json).
// Using exactly R connections pins the group placement to the identity walk.
func TestRunTaskSourceReplicatedMatchesRunReplicated(t *testing.T) {
	const replicas = 3
	const tasks = 4
	conns, shutdown := poolFixture(t, replicas, func(i int) ProducerFactory {
		if i == 1 {
			return SemiHonestFactory(0.5, 99) // a real dissenter keeps the comparison honest
		}
		return HonestFactory
	})
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}, Seed: 11}, replicas*4)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(tasks, 64)), 3, WithReplicas(replicas))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	var piped []goldenOutcome
	for so := range stream.Outcomes() {
		if so.Conn != conns[so.Outcome.Replica] {
			t.Errorf("task %d replica %d ran off connection %d", so.Outcome.Task.ID, so.Outcome.Replica, so.Outcome.Replica)
		}
		piped = append(piped, goldenOutcomeOf(so.Outcome))
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	var wireSent, wireRecv int64
	for _, conn := range conns {
		wireSent += conn.Stats().BytesSent()
		wireRecv += conn.Stats().BytesRecv()
	}
	shutdown()

	sort.Slice(piped, func(i, j int) bool {
		if piped[i].TaskID != piped[j].TaskID {
			return piped[i].TaskID < piped[j].TaskID
		}
		return piped[i].Replica < piped[j].Replica
	})
	// The key is the name this test had when the reference was recorded.
	assertGoldenOutcomes(t, "TestRunTasksStreamReplicatedMatchesRunReplicated", piped)
	// The session layer's exact accounting holds through replica barriers:
	// pool counters mean wire bytes.
	if pool.BytesSent() != wireSent || pool.BytesRecv() != wireRecv {
		t.Errorf("pool counters sent=%d recv=%d, wire totals sent=%d recv=%d",
			pool.BytesSent(), pool.BytesRecv(), wireSent, wireRecv)
	}
}

// eagerReplicaPlacement is the placement loop the slice-only stream entry
// ran up front over its whole task list, kept as the reference for the lazy
// placement that replaced it: one persistent round-robin cursor over the
// connections, skipping any that already hosts a member of the group. It
// returns, per task, the connection index of each replica.
func eagerReplicaPlacement(conns, replicas, tasks int) [][]int {
	placement := make([][]int, tasks)
	cursor := 0
	for t := range placement {
		for j := 0; j < replicas; j++ {
			for tries := 0; tries < conns; tries++ {
				cand := cursor % conns
				cursor++
				if !slices.Contains(placement[t], cand) {
					placement[t] = append(placement[t], cand)
					break
				}
			}
		}
	}
	return placement
}

// TestLazyReplicaPlacementMatchesEager diffs the dispatcher's lazy
// placement — groups placed as the source is drawn, under a small look-ahead
// — against the eager reference loop over (connections, replicas) tables.
func TestLazyReplicaPlacementMatchesEager(t *testing.T) {
	const tasks = 40
	cases := []struct {
		name            string
		replicas, conns int
	}{
		{name: "2of2", replicas: 2, conns: 2},
		{name: "2of3", replicas: 2, conns: 3},
		{name: "2of5", replicas: 2, conns: 5},
		{name: "3of3", replicas: 3, conns: 3},
		{name: "3of4", replicas: 3, conns: 4},
		{name: "3of7", replicas: 3, conns: 7},
		{name: "4of6", replicas: 4, conns: 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}}, 1)
			if err != nil {
				t.Fatalf("NewSupervisorPool: %v", err)
			}
			cfg := streamConfig{replicas: tc.replicas, highWater: 2 * tc.replicas}
			index := make(map[*connSlot]int, tc.conns)
			slots := make([]*connSlot, tc.conns)
			for i := range slots {
				conn, _ := transport.Pipe()
				slots[i] = newConnSlot(conn, nil)
				index[slots[i]] = i
			}
			_, cancel := context.WithCancel(context.Background())
			defer cancel()
			d := newDispatcher(pool, &cfg, SliceTaskSource(poolTasks(tasks, 64)), 1, cancel)
			d.allSlots = slots

			// Drain the dispatcher by hand: refill, record where each
			// replica landed, drop the tickets, repeat — the look-ahead never
			// holds more than two groups.
			got := make([][]int, tasks)
			for i := range got {
				got[i] = make([]int, tc.replicas)
			}
			d.mu.Lock()
			for d.refillLocked() {
				placed := 0
				for sl, ts := range d.pinned {
					for _, tk := range ts {
						got[tk.task.ID][tk.replica] = index[sl]
						placed++
					}
					delete(d.pinned, sl)
				}
				if placed > 2*tc.replicas {
					t.Fatalf("%d replicas materialized under a two-group high water", placed)
				}
			}
			d.mu.Unlock()

			want := eagerReplicaPlacement(tc.conns, tc.replicas, tasks)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("lazy placement diverges from the eager reference:\neager: %v\nlazy:  %v", want, got)
			}
		})
	}
}

// TestReplicatedStreamGroupsStayBounded runs a 10k-task replicated stream
// from a lazy source and samples the dispatcher as outcomes arrive: voted
// groups must leave it, so the groups still waiting for a replica never
// exceed the look-ahead.
func TestReplicatedStreamGroupsStayBounded(t *testing.T) {
	const tasks, replicas, highWater = 10000, 2, 12
	conns, shutdown := poolFixture(t, 3, func(int) ProducerFactory { return HonestFactory })
	defer shutdown()
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}, Seed: 4}, 0)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, syntheticSource(tasks, 4), 4,
		WithReplicas(replicas), WithHighWater(highWater))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	outcomes, peak := 0, 0
	for range stream.Outcomes() {
		outcomes++
		stream.d.mu.Lock()
		peak = max(peak, len(stream.d.votes))
		stream.d.mu.Unlock()
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if outcomes != tasks*replicas {
		t.Errorf("streamed %d replica outcomes, want %d", outcomes, tasks*replicas)
	}
	// Tickets outstanding never exceed the high water by more than one
	// group, and every waiting group holds at least one outstanding ticket.
	if peak > highWater+replicas {
		t.Errorf("peak waiting groups = %d, want at most %d", peak, highWater+replicas)
	}
}

// TestRunTaskSourceReplicatedManyConns sanity-checks the pipelining
// claim cheaply: with more connections than replicas, distinct groups
// proceed concurrently and all outcomes arrive. (The latency-quantified
// comparison lives in BenchmarkReplicatedDoubleCheck.)
func TestRunTaskSourceReplicatedManyConns(t *testing.T) {
	const participants, replicas, tasks = 5, 2, 12
	conns, shutdown := poolFixture(t, participants, func(int) ProducerFactory { return HonestFactory })
	defer shutdown()
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}, Seed: 2}, 0)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(tasks, 64)), 4, WithReplicas(replicas))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	seen := make(map[replicaDigest]bool)
	for so := range stream.Outcomes() {
		d := replicaDigest{so.Outcome.Task.ID, so.Outcome.Replica, so.Outcome.Verdict}
		if seen[d] {
			t.Errorf("replica outcome delivered twice: %+v", d)
		}
		seen[d] = true
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("honest replica rejected: task %d replica %d: %s",
				so.Outcome.Task.ID, so.Outcome.Replica, so.Outcome.Verdict.Reason)
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(seen) != tasks*replicas {
		t.Errorf("streamed %d replica outcomes, want %d", len(seen), tasks*replicas)
	}
}

// TestRunTaskSourceReplicatedValidation covers the replica plumbing's
// configuration errors.
func TestRunTaskSourceReplicatedValidation(t *testing.T) {
	conns, shutdown := poolFixture(t, 2, func(int) ProducerFactory { return HonestFactory })
	defer shutdown()

	dc, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}}, 2)
	if err != nil {
		t.Fatalf("NewSupervisorPool(double-check): %v", err)
	}
	if _, err := dc.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(1, 64)), 2, WithReplicas(3)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("3 replicas on 2 conns: err = %v, want ErrBadConfig", err)
	}
	if _, err := dc.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(1, 64)), 2, WithReplicas(1)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("1 replica: err = %v, want ErrBadConfig", err)
	}

	cbs, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}}, 2)
	if err != nil {
		t.Fatalf("NewSupervisorPool(cbs): %v", err)
	}
	if _, err := cbs.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(1, 64)), 2, WithReplicas(2)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("WithReplicas on cbs: err = %v, want ErrBadConfig", err)
	}
}

// TestStreamReplicaResumesAfterCut forces a mid-protocol quarantine on one
// replica of every group (the first connection dies after one reply and is
// redialed): the replicas must resume on the replacement connection and
// every verdict must still accept the honest participants.
func TestStreamReplicaResumesAfterCut(t *testing.T) {
	const replicas = 2
	r := newRedialableParticipant(t, HonestFactory)
	defer r.shutdown()
	other := newRedialableParticipant(t, HonestFactory)
	defer other.shutdown()

	conns := []transport.Conn{cutAfterRecv(r.dial(), 1), other.dial()}
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}, Seed: 5}, 4)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(3, 64)), 2,
		WithReplicas(replicas),
		WithRedial(func(transport.Conn) (transport.Conn, error) { return r.dial(), nil }))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	count := 0
	for so := range stream.Outcomes() {
		count++
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("honest replica rejected after resume: task %d replica %d: %s",
				so.Outcome.Task.ID, so.Outcome.Replica, so.Outcome.Verdict.Reason)
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if count != 3*replicas {
		t.Errorf("streamed %d replica outcomes, want %d", count, 3*replicas)
	}
	if r.dials() < 2 {
		t.Errorf("no reconnect happened (dials = %d); the cut never forced a resume", r.dials())
	}
}

// TestStreamReplicaLostWhenSlotDies kills one of three connections with no
// redial available: a replica placed there cannot move — the group's other
// members hold the connections placement chose for them — so the run fails
// with ErrReplicaLost. A failed run may have streamed part of a group
// before it stopped, so only the error is asserted, not an outcome count.
func TestStreamReplicaLostWhenSlotDies(t *testing.T) {
	const replicas, tasks = 2, 4
	doomed := newRedialableParticipant(t, HonestFactory)
	defer doomed.shutdown()
	h1 := newRedialableParticipant(t, HonestFactory)
	defer h1.shutdown()
	h2 := newRedialableParticipant(t, HonestFactory)
	defer h2.shutdown()

	conns := []transport.Conn{cutAfterRecv(doomed.dial(), 1), h1.dial(), h2.dial()}
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}, Seed: 3}, 6)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(tasks, 64)), 2, WithReplicas(replicas))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	for so := range stream.Outcomes() {
		if so.Conn == conns[0] {
			t.Errorf("task %d replica %d settled on the connection that died", so.Outcome.Task.ID, so.Outcome.Replica)
		}
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("honest replica rejected: task %d replica %d: %s", so.Outcome.Task.ID, so.Outcome.Replica, so.Outcome.Verdict.Reason)
		}
	}
	if err := stream.Err(); !errors.Is(err, ErrReplicaLost) {
		t.Fatalf("stream error = %v, want ErrReplicaLost", err)
	}
}

// replicatedSimConfig is the double-check population of the two tests
// below: R = 3 over two honest and two semi-honest participants.
func replicatedSimConfig(seed uint64) SimConfig {
	return SimConfig{
		Spec:         SchemeSpec{Kind: SchemeDoubleCheck, M: 1},
		Workload:     "synthetic",
		Seed:         seed,
		TaskSize:     96,
		Tasks:        6,
		Honest:       2,
		SemiHonest:   2,
		HonestyRatio: 0.4,
		Replicas:     3,
	}
}

// TestRunSimReplicatedPipelinedMatchesSerial compares clean double-check
// populations at window 1 and window 3 against the serial scheduler's run
// (golden_runs.json): identical group placement plus the shared comparator
// must give identical reports. The report's verdict columns are the
// supervisor's rulings; the participants themselves were sent receipts, so
// their own counters show no rejection.
func TestRunSimReplicatedPipelinedMatchesSerial(t *testing.T) {
	var own []Totals
	simFinished = func(workers []*simWorker) {
		own = own[:0]
		for _, w := range workers {
			own = append(own, w.participant.Totals())
		}
	}
	t.Cleanup(func() { simFinished = nil })
	for _, window := range []int{0, 3} {
		cfg := replicatedSimConfig(23)
		cfg.PipelineWindow = window
		report, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("RunSim(window %d): %v", window, err)
		}
		assertGoldenSim(t, "TestRunSimReplicatedPipelinedMatchesSerial", report)
		if report.CheatersDetected == 0 {
			t.Fatalf("window %d: no rejection in the report; the receipt check below proves nothing", window)
		}
		for i, totals := range own {
			if totals.Rejected != 0 || totals.Accepted != report.Participants[i].Tasks {
				t.Errorf("window %d: %s counted %d accepted, %d rejected of %d tasks; want every replica receipted",
					window, report.Participants[i].ID, totals.Accepted, totals.Rejected, report.Participants[i].Tasks)
			}
		}
	}
}

// TestRunSimReplicatedFaultyMatchesClean is the replicated fault-injection
// acceptance test: window-3 double-check under drops, garbles, and
// reconnects must produce verdicts and reports byte-identical to the clean
// window-1 run for equal seeds, with no replica execution lost, and
// — thanks to verdict acknowledgement — participant-side counters that
// converge to the clean run's.
func TestRunSimReplicatedFaultyMatchesClean(t *testing.T) {
	base := replicatedSimConfig(29)
	clean, err := RunSim(base)
	if err != nil {
		t.Fatalf("clean RunSim: %v", err)
	}

	faulty := base
	faulty.PipelineWindow = 3
	faulty.DropProb = 0.03
	faulty.GarbleProb = 0.1
	faulty.ReconnectLimit = 200
	faulty.FaultRecvTimeout = 250 * time.Millisecond
	report, err := RunSim(faulty)
	if err != nil {
		t.Fatalf("faulty pipelined RunSim: %v", err)
	}

	reconnects := 0
	for _, p := range report.Participants {
		reconnects += p.Reconnects
	}
	if reconnects == 0 {
		t.Fatalf("no reconnect-and-resume was forced; the test proves nothing")
	}
	if report.TasksAssigned != clean.TasksAssigned {
		t.Errorf("faulty run assigned %d replica executions, clean %d", report.TasksAssigned, clean.TasksAssigned)
	}
	if !reflect.DeepEqual(clean.TaskVerdicts, report.TaskVerdicts) {
		t.Errorf("verdicts diverge:\nclean:  %+v\nfaulty: %+v", clean.TaskVerdicts, report.TaskVerdicts)
	}
	if !reflect.DeepEqual(clean.Reports, report.Reports) {
		t.Errorf("report streams diverge: clean %d reports, faulty %d", len(clean.Reports), len(report.Reports))
	}
	if clean.HonestAccused != report.HonestAccused || clean.CheatersDetected != report.CheatersDetected {
		t.Errorf("detection diverges: clean %d/%d, faulty %d/%d",
			clean.CheatersDetected, clean.HonestAccused, report.CheatersDetected, report.HonestAccused)
	}
	// Verdict acknowledgement closes the worker-side gap: lost deliveries
	// are re-sent on resume, so the participants' own counters converge to
	// the clean run's instead of lagging.
	for i := range clean.Participants {
		c, f := clean.Participants[i], report.Participants[i]
		if c.Tasks != f.Tasks || c.Accepted != f.Accepted || c.Rejected != f.Rejected {
			t.Errorf("participant %s counters lag: clean tasks/acc/rej %d/%d/%d, faulty %d/%d/%d",
				c.ID, c.Tasks, c.Accepted, c.Rejected, f.Tasks, f.Accepted, f.Rejected)
		}
	}
}

// TestStreamReplicatedWindowOneSurvivesQuarantine is the regression test
// for the scheduler deadlock a code review confirmed: with window 1, a
// quarantined replica used to be re-queued behind the next group, whose
// exchange then filled the only window slot at a barrier waiting for a
// sibling queued behind another barrier-blocked exchange — a permanent
// cross-connection cycle. With barrier parking no exchange can hold a slot
// at a rendezvous, so the run must converge.
func TestStreamReplicatedWindowOneSurvivesQuarantine(t *testing.T) {
	const replicas = 2
	const tasks = 2
	r := newRedialableParticipant(t, HonestFactory)
	defer r.shutdown()
	other := newRedialableParticipant(t, HonestFactory)
	defer other.shutdown()

	conns := []transport.Conn{cutAfterRecv(r.dial(), 1), other.dial()}
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}, Seed: 6}, 4)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(tasks, 64)), 1,
		WithReplicas(replicas),
		WithRedial(func(transport.Conn) (transport.Conn, error) { return r.dial(), nil }))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	done := make(chan int, 1)
	go func() {
		count := 0
		for so := range stream.Outcomes() {
			count++
			if !so.Outcome.Verdict.Accepted {
				t.Errorf("honest replica rejected: task %d replica %d: %s",
					so.Outcome.Task.ID, so.Outcome.Replica, so.Outcome.Verdict.Reason)
			}
		}
		done <- count
	}()
	select {
	case count := <-done:
		if err := stream.Err(); err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if count != tasks*replicas {
			t.Errorf("streamed %d replica outcomes, want %d", count, tasks*replicas)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("window-1 replicated stream deadlocked after a quarantine")
	}
}
