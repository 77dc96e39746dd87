package grid

import (
	"errors"
	"testing"

	"uncheatgrid/internal/transport"
)

// TestVerdictTombstonesBounded pins the ROADMAP follow-on: a long-lived
// worker serving unboundedly many distinct tasks must not grow its
// counted-verdict tombstone map without bound. With the cap lowered, a run
// far past it keeps the map at the cap (and the order queue within its
// compaction bound) while still counting every task exactly once — and an
// ID reused by a fresh assignment still clears its tombstone so the new
// task is tallied.
func TestVerdictTombstonesBounded(t *testing.T) {
	old := maxVerdictTombstones
	maxVerdictTombstones = 8
	defer func() { maxVerdictTombstones = old }()

	participant, err := NewParticipant("long-lived", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	serveErr := make(chan error, 1)
	go func() { serveErr <- participant.Serve(partConn) }()
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 2}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}

	const tasks = 40
	for i := 0; i < tasks; i++ {
		outcome, err := runDialogue(sup, supConn, Task{
			ID: uint64(i), Start: uint64(i) * 16, N: 16, Workload: "synthetic", Seed: 2,
		})
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if !outcome.Verdict.Accepted {
			t.Fatalf("honest task %d rejected: %s", i, outcome.Verdict.Reason)
		}
	}
	if got := participant.Totals().Tasks; got != tasks {
		t.Fatalf("counted %d tasks, want %d", got, tasks)
	}
	participant.mu.Lock()
	mapLen, orderLen := len(participant.counted), len(participant.countedOrder)
	participant.mu.Unlock()
	if mapLen > maxVerdictTombstones {
		t.Errorf("tombstone map holds %d entries, cap %d", mapLen, maxVerdictTombstones)
	}
	if orderLen >= 2*maxVerdictTombstones {
		t.Errorf("tombstone order queue holds %d entries, compaction bound %d", orderLen, 2*maxVerdictTombstones)
	}

	// A fresh assignment reusing task ID 0 supersedes the old task: its
	// tombstone (evicted or not) must not suppress the new tally.
	outcome, err := runDialogue(sup, supConn, Task{ID: 0, Start: 0, N: 16, Workload: "synthetic", Seed: 2})
	if err != nil {
		t.Fatalf("reused task: %v", err)
	}
	if !outcome.Verdict.Accepted {
		t.Fatalf("reused honest task rejected: %s", outcome.Verdict.Reason)
	}
	if got := participant.Totals().Tasks; got != tasks+1 {
		t.Fatalf("reused ID not re-counted: %d tasks, want %d", got, tasks+1)
	}

	_ = supConn.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestVerdictTombstoneChurnBoundsOrderQueue drives the worst case for the
// order queue: the same ID counted, cleared by fresh-assignment reuse, and
// counted again, over and over — the map stays tiny, so eviction never
// runs, and only compaction keeps the queue from growing without bound.
func TestVerdictTombstoneChurnBoundsOrderQueue(t *testing.T) {
	old := maxVerdictTombstones
	maxVerdictTombstones = 4
	defer func() { maxVerdictTombstones = old }()

	participant, err := NewParticipant("churn", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	for i := 0; i < 100; i++ {
		participant.supersede(1, 0) // what a fresh assignment reusing ID 1 does
		participant.recordVerdict(1, 0, "honest", Verdict{Accepted: true}, 1)
	}
	participant.mu.Lock()
	mapLen, orderLen := len(participant.counted), len(participant.countedOrder)
	participant.mu.Unlock()
	if mapLen != 1 {
		t.Errorf("churned map holds %d entries, want 1", mapLen)
	}
	if orderLen >= 2*maxVerdictTombstones {
		t.Errorf("order queue grew to %d entries under churn, bound %d", orderLen, 2*maxVerdictTombstones)
	}
}

// TestStaleAssignmentKeepsNewerTombstone: a task counted on serve session 2
// keeps its tombstone when a fresh assignment for its ID turns up on the
// older session 1 — an assignment sent once on a link the supervisor has
// since abandoned, delivered late — so a verdict re-delivered on session 2
// still counts once. The same ID assigned fresh on session 2 or a newer one
// is a new task and is counted again.
func TestStaleAssignmentKeepsNewerTombstone(t *testing.T) {
	participant, err := NewParticipant("worker", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	accepted := Verdict{Accepted: true}
	if !participant.recordVerdict(7, 2, "honest", accepted, 1) {
		t.Fatal("first verdict not counted")
	}
	participant.supersede(7, 1)
	if participant.recordVerdict(7, 2, "honest", accepted, 1) {
		t.Error("a stale assignment on an older session let a re-delivered verdict count twice")
	}
	for _, session := range []uint64{2, 3} {
		participant.supersede(7, session)
		if !participant.recordVerdict(7, session, "honest", accepted, 1) {
			t.Errorf("a fresh assignment on session %d was not counted", session)
		}
	}
	if got := participant.Totals().Tasks; got != 3 {
		t.Errorf("counted %d tasks, want 3", got)
	}
}

// TestSessionTaskIDMemoryBounded is the supervisor-side twin: a session
// refuses an ID that is in flight or among the last maxVerdictTombstones
// finished, and remembers nothing older — so three times the cap of tasks on
// one session leave at most cap + window IDs behind, the ID that just
// finished is still refused, and one the ring has forgotten runs again.
func TestSessionTaskIDMemoryBounded(t *testing.T) {
	old := maxVerdictTombstones
	maxVerdictTombstones = 8
	defer func() { maxVerdictTombstones = old }()

	conn, shutdown := sessionFixture(t, HonestFactory)
	defer shutdown()
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 2}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	const window = 2
	sess, err := sup.OpenSession(conn, window)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	tasks := poolTasks(3*maxVerdictTombstones, 16)
	for _, task := range tasks { // one at a time: finishing order is ID order
		if outcome, err := sess.RunTask(task); err != nil || !outcome.Verdict.Accepted {
			t.Fatalf("task %d: %+v, %v", task.ID, outcome, err)
		}
	}
	sess.mu.Lock()
	used, ring := len(sess.used), len(sess.finished)
	sess.mu.Unlock()
	if used > maxVerdictTombstones+window || ring > maxVerdictTombstones {
		t.Errorf("after %d tasks the session remembers %d IDs (%d in its ring), want <= %d + %d",
			len(tasks), used, ring, maxVerdictTombstones, window)
	}
	last := tasks[len(tasks)-1]
	for _, task := range tasks[len(tasks)-maxVerdictTombstones:] {
		if _, err := sess.RunTask(task); !errors.Is(err, ErrBadConfig) {
			t.Errorf("recently finished ID %d reused: err = %v, want ErrBadConfig", task.ID, err)
		}
	}
	if outcome, err := sess.RunTask(tasks[0]); err != nil || !outcome.Verdict.Accepted {
		t.Errorf("an ID %d tasks old: %+v, %v; want it free again", len(tasks), outcome, err)
	}
	if _, err := sess.RunTask(last); !errors.Is(err, ErrBadConfig) {
		t.Errorf("ID %d still inside the ring: err = %v, want ErrBadConfig", last.ID, err)
	}

	// An ID in flight is refused, and so is one that just finished.
	at := &taskAttempt{task: Task{ID: 1 << 40}}
	c, err := sess.register(at)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := sess.register(&taskAttempt{task: at.task}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("in-flight ID registered twice: err = %v, want ErrBadConfig", err)
	}
	sess.detach(c, at, nil)
	if _, err := sess.register(at); !errors.Is(err, ErrBadConfig) {
		t.Errorf("finished ID registered again: err = %v, want ErrBadConfig", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
