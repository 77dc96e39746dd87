package grid

// Double-check: the replica rendezvous.
//
// The double-check scheme replicates one task across R participants and
// compares their uploads, so it needs a barrier that spans connections.
// This file supplies that barrier as its own synchronization object: each
// replica's exchange runs as an ordinary session task on its own connection
// (upload phase fully overlapped with other tasks in the window), and the
// settle phase meets a rendezvous that collects all R
// uploads, runs the index-wise majority comparison exactly once, and hands
// every replica its own verdict to deliver on its own connection. An
// exchange that arrives before its group is complete parks — releasing its
// worker and window slot back to the scheduler — and resumes when the
// comparison has run.
//
// Faults: a replica whose connection is quarantined resumes on the slot's
// replacement connection like any other task (the rendezvous submission is
// idempotent, so a resume after the barrier re-waits instead of
// re-voting). A replica stranded on a permanently dead slot is re-placed
// on a connection that holds no sibling replica, or — when none exists —
// declared lost, and the comparison degrades to a quorum over the uploads
// that survived. Fewer than two surviving uploads cannot vote at all and
// fail the group.

import (
	"errors"
	"fmt"
	"sync"

	"uncheatgrid/internal/baseline"
)

// ErrReplicaLost marks a replica group that lost too many members to
// faults for a majority comparison to mean anything.
var ErrReplicaLost = errors.New("grid: replica group lost its comparison quorum")

// errReplicaParked is the internal signal that a replica exchange reached
// its rendezvous before the group was complete: the attempt detaches —
// releasing its window slot and worker — and is re-claimed when the
// rendezvous settles. Holding scheduler resources across the barrier
// instead would deadlock (all of a window's slots blocked on barriers
// whose missing siblings are queued behind them).
var errReplicaParked = errors.New("grid: replica parked at its rendezvous")

// compareReplicas maps the index-wise majority comparison onto per-replica
// verdicts. uploads[i] is the i-th replica's full result vector; the i-th
// verdict rules on it.
func compareReplicas(uploads [][][]byte) ([]Verdict, error) {
	comparator, err := baseline.NewDoubleCheck(len(uploads))
	if err != nil {
		return nil, err
	}
	verdicts := make([]Verdict, len(uploads))
	verdict, cmpErr := comparator.Compare(uploads)
	switch {
	case cmpErr == nil:
		dissent := make(map[int]bool, len(verdict.Dissenters))
		for _, r := range verdict.Dissenters {
			dissent[r] = true
		}
		for i := range verdicts {
			if dissent[i] {
				verdicts[i] = Verdict{Reason: "disagrees with replica majority"}
			} else {
				verdicts[i] = Verdict{Accepted: true}
			}
		}
	case errors.Is(cmpErr, baseline.ErrNoConsensus):
		for i := range verdicts {
			verdicts[i] = Verdict{Reason: cmpErr.Error()}
		}
	default:
		return nil, cmpErr
	}
	return verdicts, nil
}

// replicaRendezvous is the cross-connection barrier of one replicated
// task. Replicas submit their uploads as their exchanges reach the settle
// phase; the arrival that completes the group (every replica submitted or
// lost) runs the comparison once and publishes one verdict per surviving
// replica.
//
// Waiting at the barrier must not hold a scheduler resource: an exchange
// that finds the rendezvous unready parks (its window slot and worker go
// back to other tasks) and is re-claimed when onReady fires.
type replicaRendezvous struct {
	r int
	// onReady, when set, is invoked once as the rendezvous settles
	// (comparison ran, quorum failed, or abort). It must not block and must
	// not take locks — the dispatcher passes a non-blocking wakeup so
	// settling from any lock context is safe.
	onReady func()

	mu       sync.Mutex
	uploads  map[int][][]byte
	lost     map[int]bool
	verdicts map[int]Verdict
	err      error
	done     chan struct{}
}

func newReplicaRendezvous(r int) *replicaRendezvous {
	return &replicaRendezvous{
		r:       r,
		uploads: make(map[int][][]byte, r),
		lost:    make(map[int]bool, r),
		done:    make(chan struct{}),
	}
}

// submit banks replica idx's upload and completes the barrier when it is
// the last arrival. Idempotent: a replica that resumes after a connection
// fault re-submits and the first upload wins (it is the one a concurrent
// comparison may already have voted with).
func (rv *replicaRendezvous) submit(idx int, results [][]byte) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.settledLocked() {
		return
	}
	if _, dup := rv.uploads[idx]; dup {
		return
	}
	rv.uploads[idx] = results
	delete(rv.lost, idx)
	rv.maybeCompleteLocked()
}

// fail declares replica idx lost — its participant is unreachable and no
// eligible connection remains to re-place it. An upload the replica
// already banked still votes; only a replica that never delivered shrinks
// the quorum.
func (rv *replicaRendezvous) fail(idx int) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.settledLocked() {
		return
	}
	if _, have := rv.uploads[idx]; !have {
		rv.lost[idx] = true
	}
	rv.maybeCompleteLocked()
}

// abort poisons the barrier so blocked replicas fail instead of waiting on
// siblings that will never arrive (run cancelled or failed elsewhere).
func (rv *replicaRendezvous) abort(err error) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.settledLocked() {
		return
	}
	rv.err = err
	close(rv.done)
	if rv.onReady != nil {
		rv.onReady()
	}
}

// ready reports whether the rendezvous has settled (await will not block).
func (rv *replicaRendezvous) ready() bool {
	select {
	case <-rv.done:
		return true
	default:
		return false
	}
}

// await blocks until the comparison ran (or the barrier aborted) and
// returns replica idx's verdict. Exchanges never block here — they park
// while the rendezvous is unready and are re-claimed on onReady.
func (rv *replicaRendezvous) await(idx int) (Verdict, error) {
	<-rv.done
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.err != nil {
		return Verdict{}, rv.err
	}
	v, ok := rv.verdicts[idx]
	if !ok {
		return Verdict{}, fmt.Errorf("%w: replica %d has no verdict", ErrReplicaLost, idx)
	}
	return v, nil
}

func (rv *replicaRendezvous) settledLocked() bool {
	select {
	case <-rv.done:
		return true
	default:
		return false
	}
}

// maybeCompleteLocked runs the comparison once every replica has either
// delivered or been declared lost. With losses the vote degrades to a
// quorum over the survivors; below two uploads no majority exists and the
// group fails.
func (rv *replicaRendezvous) maybeCompleteLocked() {
	if len(rv.uploads)+len(rv.lost) < rv.r {
		return
	}
	defer func() {
		close(rv.done)
		if rv.onReady != nil {
			rv.onReady()
		}
	}()
	if len(rv.uploads) < 2 {
		rv.err = fmt.Errorf("%w: %d of %d uploads survived", ErrReplicaLost, len(rv.uploads), rv.r)
		return
	}
	// Compare in replica-index order so the verdicts do not depend on
	// arrival order.
	members := make([]int, 0, len(rv.uploads))
	for idx := 0; idx < rv.r; idx++ {
		if _, ok := rv.uploads[idx]; ok {
			members = append(members, idx)
		}
	}
	uploads := make([][][]byte, len(members))
	for i, idx := range members {
		uploads[i] = rv.uploads[idx]
	}
	verdicts, err := compareReplicas(uploads)
	if err != nil {
		rv.err = err
		return
	}
	rv.verdicts = make(map[int]Verdict, len(members))
	for i, idx := range members {
		rv.verdicts[idx] = verdicts[i]
	}
}
