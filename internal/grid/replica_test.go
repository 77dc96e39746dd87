package grid

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
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
// connections, skipping any that already hosts a sibling (by connection, or
// by worker identity when ids are given). It returns, per task, the
// connection index of each replica.
func eagerReplicaPlacement(conns, replicas, tasks int, ids []string) [][]int {
	hosts := func(group []int, cand int) bool {
		for _, member := range group {
			if member == cand || (ids != nil && ids[cand] != "" && ids[member] == ids[cand]) {
				return true
			}
		}
		return false
	}
	placement := make([][]int, tasks)
	cursor := 0
	for t := range placement {
		for j := 0; j < replicas; j++ {
			for tries := 0; tries < conns; tries++ {
				cand := cursor % conns
				cursor++
				if !hosts(placement[t], cand) {
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
// — against the eager reference loop over (connections, replicas,
// identities) tables.
func TestLazyReplicaPlacementMatchesEager(t *testing.T) {
	const tasks = 40
	cases := []struct {
		name     string
		replicas int
		ids      []string // one per connection; nil = distinct by connection
		conns    int
	}{
		{name: "2of2", replicas: 2, conns: 2},
		{name: "2of3", replicas: 2, conns: 3},
		{name: "2of5", replicas: 2, conns: 5},
		{name: "3of3", replicas: 3, conns: 3},
		{name: "3of4", replicas: 3, conns: 4},
		{name: "3of7", replicas: 3, conns: 7},
		{name: "4of6", replicas: 4, conns: 6},
		{name: "2of4-two-routes-each", replicas: 2, conns: 4, ids: []string{"A", "B", "A", "B"}},
		{name: "2of5-shared-worker", replicas: 2, conns: 5, ids: []string{"A", "A", "B", "C", "A"}},
		{name: "3of6-adjacent-routes", replicas: 3, conns: 6, ids: []string{"A", "A", "B", "B", "C", "C"}},
		{name: "3of5-one-unknown", replicas: 3, conns: 5, ids: []string{"A", "", "B", "A", "C"}},
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
			connIdx := make(map[transport.Conn]int, tc.conns)
			for i := range slots {
				conn, _ := transport.Pipe()
				slots[i] = newConnSlot(conn, nil)
				index[slots[i]] = i
				connIdx[conn] = i
			}
			if tc.ids != nil {
				cfg.identity = func(c transport.Conn) string { return tc.ids[connIdx[c]] }
			}
			_, cancel := context.WithCancel(context.Background())
			defer cancel()
			d := newDispatcher(pool, &cfg, SliceTaskSource(poolTasks(tasks, 64)), 1, cancel)
			d.allSlots = slots

			// Drain the dispatcher by hand: refill, record where each
			// replica landed, drop the tickets, repeat — the look-ahead never
			// holds more than two groups.
			got := make([][]int, tasks)
			d.mu.Lock()
			for d.refillLocked() {
				if len(d.groups) > 2 {
					t.Fatalf("%d groups materialized under a two-group high water", len(d.groups))
				}
				for g := range d.groups {
					placed := make([]int, len(g.slots))
					for j, sl := range g.slots {
						placed[j] = index[sl]
					}
					got[g.task.ID] = placed
					delete(d.groups, g)
				}
				for sl := range d.pinned {
					delete(d.pinned, sl)
				}
			}
			d.mu.Unlock()

			want := eagerReplicaPlacement(tc.conns, tc.replicas, tasks, tc.ids)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("lazy placement diverges from the eager reference:\neager: %v\nlazy:  %v", want, got)
			}
		})
	}
}

// TestReplicatedStreamGroupsStayBounded runs a 10k-task replicated stream
// from a lazy source and samples the dispatcher as outcomes arrive: settled
// groups must leave it, so the live set never exceeds the look-ahead.
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
		peak = max(peak, len(stream.d.groups))
		stream.d.mu.Unlock()
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if outcomes != tasks*replicas {
		t.Errorf("streamed %d replica outcomes, want %d", outcomes, tasks*replicas)
	}
	// Tickets outstanding never exceed the high water by more than one
	// group, and every live group holds at least one outstanding ticket.
	if peak == 0 || peak > highWater+replicas {
		t.Errorf("peak live groups = %d, want within (0, %d]", peak, highWater+replicas)
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

// TestStreamReplicaReplacedWhenSlotDies kills one of three connections with
// no redial available: its replicas must be re-placed on a connection that
// holds no sibling, and every group must still produce a full verdict set.
func TestStreamReplicaReplacedWhenSlotDies(t *testing.T) {
	const participants, replicas, tasks = 3, 2, 4
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
	seen := make(map[uint64]map[int]bool)
	for so := range stream.Outcomes() {
		id, rep := so.Outcome.Task.ID, so.Outcome.Replica
		if seen[id] == nil {
			seen[id] = make(map[int]bool)
		}
		if seen[id][rep] {
			t.Errorf("task %d replica %d delivered twice", id, rep)
		}
		seen[id][rep] = true
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("honest replica rejected: task %d replica %d: %s", id, rep, so.Outcome.Verdict.Reason)
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	for _, task := range poolTasks(tasks, 64) {
		if len(seen[task.ID]) != replicas {
			t.Errorf("task %d delivered %d replica outcomes, want %d", task.ID, len(seen[task.ID]), replicas)
		}
	}
}

// gatedAssignConn holds back the first frame carrying a task assignment
// until release is closed, so the test controls which replica reaches the
// rendezvous first. Session handshaking and verdict traffic pass freely.
type gatedAssignConn struct {
	transport.Conn
	release <-chan struct{}
}

func (c *gatedAssignConn) Send(msg transport.Message) error {
	if msg.Type == msgBatch {
		if msgs, err := decodeBatch(nil, msg.Payload); err == nil {
			for _, tm := range msgs {
				if tm.Type == msgAssign {
					<-c.release
					break
				}
			}
		}
	}
	return c.Conn.Send(msg)
}

// uploadSignalConn closes uploaded the first time a result upload passes
// through Recv — the moment the replica's submission is in the supervisor's
// hands and killing the link can no longer lose it.
type uploadSignalConn struct {
	transport.Conn
	uploaded chan struct{}
	once     sync.Once
}

func (c *uploadSignalConn) Recv() (transport.Message, error) {
	msg, err := c.Conn.Recv()
	if err == nil && msg.Type == msgBatch {
		if msgs, derr := decodeBatch(nil, msg.Payload); derr == nil {
			for _, tm := range msgs {
				if tm.Type == msgResults || tm.Type == msgResultChunk {
					c.once.Do(func() { close(c.uploaded) })
				}
			}
		}
	}
	return msg, err
}

// TestStreamReplicaBankedWhenSlotDiesAfterUpload kills a replica's link
// after its upload reached the supervisor but before the group settled. The
// banked upload must still vote and yield a synthesized outcome attributed
// to the dead link — not be re-run (with only two connections a re-run is
// impossible: the sole survivor hosts the sibling), and not be dropped.
func TestStreamReplicaBankedWhenSlotDiesAfterUpload(t *testing.T) {
	const replicas = 2
	doomed := newRedialableParticipant(t, HonestFactory)
	defer doomed.shutdown()
	partner := newRedialableParticipant(t, HonestFactory)
	defer partner.shutdown()

	uploaded := make(chan struct{})
	release := make(chan struct{})
	doomedConn := &uploadSignalConn{Conn: doomed.dial(), uploaded: uploaded}
	partnerConn := &gatedAssignConn{Conn: partner.dial(), release: release}

	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}, Seed: 11}, 4)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(),
		[]transport.Conn{doomedConn, partnerConn}, SliceTaskSource(poolTasks(1, 64)), 2, WithReplicas(replicas))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	// Replica 0 uploads while replica 1 is still gated, then its link dies;
	// only then may replica 1 proceed and complete the rendezvous.
	go func() {
		<-uploaded
		_ = doomedConn.Conn.Close()
		close(release)
	}()

	outcomes := make(map[int]StreamedOutcome)
	for so := range stream.Outcomes() {
		if _, dup := outcomes[so.Outcome.Replica]; dup {
			t.Errorf("replica %d delivered twice", so.Outcome.Replica)
		}
		outcomes[so.Outcome.Replica] = so
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(outcomes) != replicas {
		t.Fatalf("streamed %d outcomes, want %d: the banked upload's outcome was dropped", len(outcomes), replicas)
	}
	for rep, so := range outcomes {
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("honest replica %d rejected: %s", rep, so.Outcome.Verdict.Reason)
		}
	}
	if got := outcomes[0].Conn; got != transport.Conn(doomedConn) {
		t.Errorf("banked outcome attributed to the wrong connection (re-run instead of banked?)")
	}
	if doomed.dials() != 1 {
		t.Errorf("doomed participant dialed %d times, want 1 (no redial configured)", doomed.dials())
	}
}

// TestReplicaRendezvousQuorum pins the degraded-comparison rules directly:
// a lost replica shrinks the vote to the survivors; fewer than two
// survivors cannot vote at all.
func TestReplicaRendezvousQuorum(t *testing.T) {
	good := [][]byte{[]byte("a"), []byte("b")}
	bad := [][]byte{[]byte("a"), []byte("x")}

	rv := newReplicaRendezvous(3)
	rv.submit(0, good)
	rv.submit(2, bad)
	rv.fail(1)
	if _, err := rv.await(1); !errors.Is(err, ErrReplicaLost) {
		t.Errorf("lost replica verdict: err = %v, want ErrReplicaLost", err)
	}
	// With two survivors no strict majority exists on the disputed index:
	// both sides are rejected.
	v0, err := rv.await(0)
	if err != nil {
		t.Fatalf("await(0): %v", err)
	}
	v2, err := rv.await(2)
	if err != nil {
		t.Fatalf("await(2): %v", err)
	}
	if v0.Accepted || v2.Accepted {
		t.Errorf("disputed pair produced an acceptance: %+v / %+v", v0, v2)
	}

	under := newReplicaRendezvous(2)
	under.submit(0, good)
	under.fail(1)
	if _, err := under.await(0); !errors.Is(err, ErrReplicaLost) {
		t.Errorf("below-quorum group: err = %v, want ErrReplicaLost", err)
	}

	// Majority with a quorum of 3 of 4: the dissenter is convicted, the
	// agreeing survivors accepted, idempotent re-submission ignored.
	q := newReplicaRendezvous(4)
	q.submit(0, good)
	q.submit(1, good)
	q.fail(3)
	q.submit(2, bad)
	q.submit(2, good) // late duplicate must not flip the vote
	for idx, wantAccept := range map[int]bool{0: true, 1: true, 2: false} {
		v, err := q.await(idx)
		if err != nil {
			t.Fatalf("await(%d): %v", idx, err)
		}
		if v.Accepted != wantAccept {
			t.Errorf("replica %d accepted=%v, want %v (%s)", idx, v.Accepted, wantAccept, v.Reason)
		}
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
// must give identical reports.
func TestRunSimReplicatedPipelinedMatchesSerial(t *testing.T) {
	for _, window := range []int{0, 3} {
		cfg := replicatedSimConfig(23)
		cfg.PipelineWindow = window
		report, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("RunSim(window %d): %v", window, err)
		}
		assertGoldenSim(t, "TestRunSimReplicatedPipelinedMatchesSerial", report)
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

// TestReplicaParksAtIncompleteRendezvous pins the barrier-liveness design:
// a replica whose group is incomplete must NOT block holding its window
// slot and worker — RunAttempt detaches with errReplicaParked — and a
// re-claimed attempt finishes the exchange, on the same live session
// (without re-announcing) or on a replacement one (with a resume).
func TestReplicaParksAtIncompleteRendezvous(t *testing.T) {
	r := newRedialableParticipant(t, HonestFactory)
	defer r.shutdown()

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}, Seed: 4})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	for _, sameSession := range []bool{true, false} {
		name := "same-session"
		task := poolTasks(1, 64)[0]
		if !sameSession {
			name = "replacement-session"
			task.ID = 1 // a fresh task for the second scenario
		}
		t.Run(name, func(t *testing.T) {
			rdv := newReplicaRendezvous(2)
			at, err := sup.newReplicaAttempt(task, rdv, 0)
			if err != nil {
				t.Fatalf("newReplicaAttempt: %v", err)
			}
			sess, err := sup.OpenSession(r.dial(), 1)
			if err != nil {
				t.Fatalf("OpenSession: %v", err)
			}
			// The sibling never arrived: the attempt must detach promptly
			// instead of blocking the window slot.
			if _, err := sess.RunAttempt(at); !errors.Is(err, errReplicaParked) {
				t.Fatalf("RunAttempt error = %v, want errReplicaParked", err)
			}
			upload := func() [][]byte {
				rdv.mu.Lock()
				defer rdv.mu.Unlock()
				return rdv.uploads[0]
			}()
			if upload == nil {
				t.Fatal("parked replica never submitted its upload")
			}

			resume := sess
			if !sameSession {
				// The first session dies while the replica is parked; the
				// re-claimed attempt must announce a resume on the new one.
				sess.abandon()
				if resume, err = sup.OpenSession(r.dial(), 1); err != nil {
					t.Fatalf("OpenSession 2: %v", err)
				}
			}
			rdv.submit(1, append([][]byte(nil), upload...))
			outcome, err := resume.RunAttempt(at)
			if err != nil {
				t.Fatalf("re-claimed RunAttempt: %v", err)
			}
			if !outcome.Verdict.Accepted {
				t.Errorf("honest replica rejected after parking: %s", outcome.Verdict.Reason)
			}
			if err := resume.Close(); err != nil {
				t.Fatalf("session close: %v", err)
			}
		})
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
