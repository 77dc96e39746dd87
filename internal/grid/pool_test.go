package grid

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"uncheatgrid/internal/transport"
)

// poolFixture wires n participants (serving on their own goroutines) and
// returns their supervisor-side connections plus a shutdown func.
func poolFixture(t *testing.T, n int, factory func(i int) ProducerFactory) ([]transport.Conn, func()) {
	t.Helper()
	conns := make([]transport.Conn, n)
	serveErrs := make([]chan error, n)
	for i := 0; i < n; i++ {
		p, err := NewParticipant(fmt.Sprintf("p%d", i), factory(i))
		if err != nil {
			t.Fatalf("NewParticipant: %v", err)
		}
		supConn, partConn := transport.Pipe(transport.WithBuffer(8))
		conns[i] = supConn
		serveErrs[i] = make(chan error, 1)
		go func(ch chan error) { ch <- p.Serve(partConn) }(serveErrs[i])
	}
	shutdown := func() {
		t.Helper()
		for _, c := range conns {
			_ = c.Close()
		}
		for i, ch := range serveErrs {
			if err := <-ch; err != nil {
				t.Errorf("participant %d serve: %v", i, err)
			}
		}
	}
	return conns, shutdown
}

// poolTasks builds one synthetic task per index with distinct IDs/windows.
func poolTasks(n int, size uint64) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			ID:       uint64(i),
			Start:    uint64(i) * size,
			N:        size,
			Workload: "synthetic",
			Seed:     7,
		}
	}
	return tasks
}

// runPinned runs tasks over conns with pinned placement (task i on
// connection i mod len(conns)) and returns the outcomes indexed like tasks.
func runPinned(t *testing.T, pool *SupervisorPool, conns []transport.Conn, tasks []Task, window int) []*TaskOutcome {
	t.Helper()
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(tasks), window, WithPinnedPlacement())
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	byID := make(map[uint64]int, len(tasks))
	for i, task := range tasks {
		byID[task.ID] = i
	}
	outcomes := make([]*TaskOutcome, len(tasks))
	for so := range stream.Outcomes() {
		i := byID[so.Outcome.Task.ID]
		if so.Conn != conns[i%len(conns)] {
			t.Errorf("task %d ran off its pinned connection", so.Outcome.Task.ID)
		}
		outcomes[i] = so.Outcome
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	for i, outcome := range outcomes {
		if outcome == nil {
			t.Fatalf("task %d never settled", tasks[i].ID)
		}
	}
	return outcomes
}

// TestPoolRunsManyParticipantsConcurrently is the headline concurrency
// test: 12 participants verified at once, honest ones accepted, cheaters
// caught, eval/byte aggregation consistent. Run under -race it also proves
// the engine clean of data races.
func TestPoolRunsManyParticipantsConcurrently(t *testing.T) {
	const participants = 12
	cheaterAt := func(i int) bool { return i%3 == 2 }
	conns, shutdown := poolFixture(t, participants, func(i int) ProducerFactory {
		if cheaterAt(i) {
			// r = 0.3, m = 20: survival probability ~3e-11.
			return SemiHonestFactory(0.3, uint64(100+i))
		}
		return HonestFactory
	})

	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 20},
		Seed: 42,
	}, participants)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}

	outcomes := runPinned(t, pool, conns, poolTasks(participants, 256), 1)
	var wireSent, wireRecv int64
	for _, conn := range conns {
		wireSent += conn.Stats().BytesSent()
		wireRecv += conn.Stats().BytesRecv()
	}
	shutdown()

	var evals int64
	for i, outcome := range outcomes {
		if cheaterAt(i) == outcome.Verdict.Accepted {
			t.Errorf("participant %d (cheater=%v): accepted=%v, reason=%q",
				i, cheaterAt(i), outcome.Verdict.Accepted, outcome.Verdict.Reason)
		}
		evals += outcome.VerifyEvals
	}
	if pool.BytesSent() != wireSent || pool.BytesRecv() != wireRecv {
		t.Errorf("pool counters sent=%d recv=%d, wire totals sent=%d recv=%d",
			pool.BytesSent(), pool.BytesRecv(), wireSent, wireRecv)
	}
	if pool.VerifyEvals() != evals {
		t.Errorf("pool VerifyEvals = %d, outcome sum = %d", pool.VerifyEvals(), evals)
	}
	if evals == 0 {
		t.Error("no verification evaluations recorded")
	}
}

// TestPoolSerializesSharedConnection gives one participant several tasks
// at window 1: the connection carries them one exchange at a time, in order.
func TestPoolSerializesSharedConnection(t *testing.T) {
	conns, shutdown := poolFixture(t, 1, func(int) ProducerFactory { return HonestFactory })
	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 5},
		Seed: 1,
	}, 8)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(6, 64)), 1)
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	next := uint64(0)
	for so := range stream.Outcomes() {
		if so.Outcome.Task.ID != next {
			t.Errorf("task %d settled when task %d was due", so.Outcome.Task.ID, next)
		}
		next++
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("task %d rejected on shared conn: %s", so.Outcome.Task.ID, so.Outcome.Verdict.Reason)
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	shutdown()
	if next != 6 {
		t.Fatalf("settled %d tasks, want 6", next)
	}
}

// TestPoolMatchesSerialSupervisor runs eight participants at once, one task
// each, and checks every outcome against what one serial dialogue per
// participant produced (golden_runs.json): per-task seed derivation must
// make verdicts, convicting samples and eval counts identical.
func TestPoolMatchesSerialSupervisor(t *testing.T) {
	const participants = 8
	conns, shutdown := poolFixture(t, participants, func(i int) ProducerFactory {
		if i%2 == 1 {
			return SemiHonestFactory(0.5, uint64(i))
		}
		return HonestFactory
	})
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 16}, Seed: 9}, 4)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	outcomes := runPinned(t, pool, conns, poolTasks(participants, 128), 2)
	shutdown()
	got := make([]goldenOutcome, len(outcomes))
	for i, outcome := range outcomes {
		got[i] = goldenOutcomeOf(outcome)
	}
	assertGoldenOutcomes(t, "TestPoolMatchesSerialSupervisor", got)
}

// TestPoolRejectsBadConfig covers constructor and input validation.
func TestPoolRejectsBadConfig(t *testing.T) {
	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 5},
	}, 0) // 0 workers defaults to NumCPU
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	conn, _ := transport.Pipe()
	ctx := context.Background()
	if _, err := pool.RunTaskSource(ctx, nil, SliceTaskSource(poolTasks(1, 64)), 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no connections: err = %v, want ErrBadConfig", err)
	}
	if _, err := pool.RunTaskSource(ctx, []transport.Conn{conn}, nil, 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil source: err = %v, want ErrBadConfig", err)
	}
	if _, err := pool.RunTaskSource(ctx, []transport.Conn{nil}, SliceTaskSource(poolTasks(1, 64)), 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil conn: err = %v, want ErrBadConfig", err)
	}
	if _, err := pool.RunTaskSource(ctx, []transport.Conn{conn}, SliceTaskSource(poolTasks(1, 64)), 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("window 0: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS}}, 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("m=0 pool: err = %v, want ErrBadConfig", err)
	}
}

// TestPoolHonorsCancelledContext starts with an already-cancelled context:
// no task may run.
func TestPoolHonorsCancelledContext(t *testing.T) {
	conns, shutdown := poolFixture(t, 2, func(int) ProducerFactory { return HonestFactory })
	defer shutdown()
	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 5},
	}, 2)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stream, err := pool.RunTaskSource(ctx, conns, SliceTaskSource(poolTasks(2, 64)), 1)
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	for so := range stream.Outcomes() {
		t.Errorf("task %d ran under a cancelled context", so.Outcome.Task.ID)
	}
	if err := stream.Err(); err != nil {
		t.Errorf("cancelled stream: err = %v, want a clean end", err)
	}
	if pool.VerifyEvals() != 0 {
		t.Errorf("pool spent %d verification evaluations under a cancelled context", pool.VerifyEvals())
	}
}

// TestPoolPropagatesTransportErrors closes every connection under the pool:
// the failure must come back as a shortfall, never as a verdict.
func TestPoolPropagatesTransportErrors(t *testing.T) {
	conns, shutdown := poolFixture(t, 2, func(int) ProducerFactory { return HonestFactory })
	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 5},
	}, 2)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	_ = conns[0].Close()
	_ = conns[1].Close()
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(2, 64)), 1)
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	for so := range stream.Outcomes() {
		t.Errorf("task %d got a verdict over a closed connection: %+v", so.Outcome.Task.ID, so.Outcome.Verdict)
	}
	if err := stream.Err(); err != nil {
		t.Errorf("stream error: %v (dead connections end the stream short, they do not fail it)", err)
	}
	// Both serve loops saw their peer closed and exit cleanly.
	shutdown()
}

// TestTaskSeedIndependence pins the per-task derivation: distinct task IDs
// yield distinct streams, and the same ID always yields the same stream.
func TestTaskSeedIndependence(t *testing.T) {
	if taskSeed(1, 1) == taskSeed(1, 2) {
		t.Error("tasks 1 and 2 share a seed")
	}
	if taskSeed(1, 1) == taskSeed(2, 1) {
		t.Error("supervisor seeds 1 and 2 collide on task 1")
	}
	if taskSeed(5, 9) != taskSeed(5, 9) {
		t.Error("taskSeed is not deterministic")
	}
}
