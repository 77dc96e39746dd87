package grid

// Double-check: the replica vote.
//
// The double-check scheme replicates one task across R participants and
// compares their uploads. Each replica is an ordinary upload exchange on the
// connection placement chose for it (placeLocked keeps a group's replicas
// on distinct connections), and its participant is sent an upload receipt.
// The comparison is the one thing that spans connections, and it waits for
// nothing: the worker whose replica settles last in its group finds the
// other R − 1 in the dispatcher's vote table, compares the R uploads once,
// and streams all R outcomes, each carrying the majority's verdict on its
// replica.

import (
	"errors"
	"fmt"

	"uncheatgrid/internal/baseline"
)

// ErrReplicaLost marks a double-check replica whose connection died for
// good: it cannot run anywhere else, so its group can never be compared.
var ErrReplicaLost = errors.New("grid: double-check replica lost with its connection")

// replicaVote collects the settled replicas of one group: members[r] and
// uploads[r] are replica r's outcome and result vector.
type replicaVote struct {
	members []StreamedOutcome
	uploads [][][]byte
	settled int
}

// vote records a settled replica and its upload. It returns nothing until
// the group's last replica arrives, and then the whole group in replica
// order, each outcome's verdict rewritten to the comparison's ruling on it.
func (d *dispatcher) vote(so StreamedOutcome, upload [][]byte) ([]StreamedOutcome, error) {
	id, r := so.Outcome.Task.ID, so.Outcome.Replica
	d.mu.Lock()
	v := d.votes[id]
	if v == nil {
		v = &replicaVote{members: make([]StreamedOutcome, d.replicas), uploads: make([][][]byte, d.replicas)}
		d.votes[id] = v
	}
	if v.members[r].Outcome != nil {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: task ID %d repeats within a replicated stream", ErrBadConfig, id)
	}
	v.members[r], v.uploads[r] = so, upload
	v.settled++
	complete := v.settled == d.replicas
	if complete {
		delete(d.votes, id)
	}
	d.mu.Unlock()
	if !complete {
		return nil, nil
	}
	verdicts, err := compareReplicas(v.uploads)
	if err != nil {
		return nil, err
	}
	for i, member := range v.members {
		member.Outcome.Verdict = verdicts[i]
	}
	return v.members, nil
}

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
