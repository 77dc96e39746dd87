package grid

import (
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
		participant.mu.Lock()
		delete(participant.counted, 1) // what a fresh assignment reusing ID 1 does
		participant.mu.Unlock()
		participant.recordVerdict(1, "honest", Verdict{Accepted: true}, 1)
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
