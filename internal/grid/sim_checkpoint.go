package grid

// The simulator's durable state.
//
// A run with CheckpointEvery > 0 splits its horizon into segments. A
// segment ends at the stream's drain barrier: every participant persists its
// durable state, then the coordinator writes its own checkpoint — progress
// cursor, settled tasks, window ledgers, and the cumulative counters of
// connections about to be torn down. KillAfter exercises the recovery path:
// the whole attempt is torn down mid-segment and rebuilt purely from the
// checkpoint files, and the final report must match an uninterrupted run's.
// A run without checkpoints keeps the same state in memory only.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// supervisorCheckpointPath names the coordinator's checkpoint file.
func supervisorCheckpointPath(dir string) string {
	return filepath.Join(dir, "supervisor.ckpt")
}

// outcomeKey names one task execution: replicated runs settle several per
// task ID.
type outcomeKey struct {
	task    uint64
	replica int
}

// settledTask is what the report keeps of one settled execution: the
// ruling, the screened results, and the task's tagged bytes.
type settledTask struct {
	verdict    Verdict
	reports    []Report
	sent, recv int64
}

// simState is the coordinator's progress: everything a restart needs that is
// not derivable from SimConfig. Byte counters are cumulative across attempts
// (each attempt's connections die with it), so the final report's totals
// cover the whole logical run.
type simState struct {
	seq                uint64
	nextTask           int
	supEvals           int64
	supSent, supRecv   int64
	partSent, partRecv []int64
	ledgers            []*WindowLedger // nil when Spec.WindowTasks == 0
	settled            map[outcomeKey]settledTask
}

func newSimState(cfg SimConfig) (*simState, error) {
	n := cfg.participants()
	st := &simState{
		partSent: make([]int64, n),
		partRecv: make([]int64, n),
		settled:  make(map[outcomeKey]settledTask),
	}
	if cfg.Spec.WindowTasks > 0 {
		st.ledgers = make([]*WindowLedger, n)
		for i := range st.ledgers {
			led, err := NewWindowLedger(cfg.Spec)
			if err != nil {
				return nil, err
			}
			st.ledgers[i] = led
		}
	}
	return st, nil
}

// loadSimState returns the checkpointed coordinator state, or a fresh one
// when no checkpoint directory is configured or no file exists yet.
func loadSimState(cfg SimConfig) (*simState, error) {
	if cfg.CheckpointDir == "" {
		return newSimState(cfg)
	}
	_, payload, err := readCheckpointFile(supervisorCheckpointPath(cfg.CheckpointDir))
	if errors.Is(err, fs.ErrNotExist) {
		return newSimState(cfg)
	}
	if err != nil {
		return nil, err
	}
	return decodeSimState(cfg, payload)
}

func (st *simState) save(cfg SimConfig) error {
	payload, err := st.encode()
	if err != nil {
		return err
	}
	return writeCheckpointFile(supervisorCheckpointPath(cfg.CheckpointDir), payload)
}

func (st *simState) encode() ([]byte, error) {
	out := binary.AppendUvarint(nil, st.seq)
	for _, v := range []int64{int64(st.nextTask), st.supEvals, st.supSent, st.supRecv, int64(len(st.partSent))} {
		out = binary.AppendUvarint(out, uint64(v))
	}
	for i := range st.partSent {
		out = binary.AppendUvarint(out, uint64(st.partSent[i]))
		out = binary.AppendUvarint(out, uint64(st.partRecv[i]))
		out = appendFlag(out, st.ledgers != nil)
		if st.ledgers != nil {
			out = appendBytes(out, st.ledgers[i].appendState(nil))
		}
	}
	// Settled tasks are exactly [0, nextTask): segments complete in full
	// before a checkpoint is taken, and checkpointed runs are unreplicated.
	for id := 0; id < st.nextTask; id++ {
		rec, ok := st.settled[outcomeKey{task: uint64(id)}]
		if !ok {
			return nil, fmt.Errorf("grid: checkpoint: no verdict for settled task %d", id)
		}
		out = appendBytes(out, encodeVerdict(rec.verdict))
		out = appendBytes(out, encodeReports(rec.reports))
		out = binary.AppendUvarint(out, uint64(rec.sent))
		out = binary.AppendUvarint(out, uint64(rec.recv))
	}
	return out, nil
}

// decodeSimState rebuilds the coordinator state for cfg from encode's
// output, which both format versions share.
func decodeSimState(cfg SimConfig, payload []byte) (*simState, error) {
	st, err := newSimState(cfg)
	if err != nil {
		return nil, err
	}
	w := walker{buf: payload}
	st.seq = w.uvarint("seq")
	next := w.uvarint("next task")
	if w.err == nil && next > uint64(cfg.Tasks) {
		return nil, fmt.Errorf("%w: checkpoint at task %d beyond the %d-task run", ErrCheckpointCorrupt, next, cfg.Tasks)
	}
	st.nextTask = int(next)
	st.supEvals = w.counter("evals")
	st.supSent = w.counter("bytes sent")
	st.supRecv = w.counter("bytes recv")
	if n := w.uvarint("participants"); w.err == nil && n != uint64(len(st.partSent)) {
		return nil, fmt.Errorf("%w: checkpoint covers %d participants, pool has %d",
			ErrCheckpointCorrupt, n, len(st.partSent))
	}
	for i := 0; i < len(st.partSent) && w.err == nil; i++ {
		st.partSent[i] = w.counter("participant sent")
		st.partRecv[i] = w.counter("participant recv")
		hasLedger := w.flag("ledger flag")
		if w.err == nil && hasLedger != (st.ledgers != nil) {
			return nil, fmt.Errorf("%w: checkpoint and config disagree on window commitments", ErrCheckpointCorrupt)
		}
		if hasLedger {
			// A failed walk hands decodeWindowLedger nil; done reports it.
			if st.ledgers[i], err = decodeWindowLedger(cfg.Spec, w.bytes("ledger")); err != nil && w.err == nil {
				return nil, err
			}
		}
	}
	for id := 0; id < st.nextTask && w.err == nil; id++ {
		v, verr := decodeVerdict(w.bytes("verdict"))
		reports, rerr := decodeReports(w.bytes("reports"))
		rec := settledTask{verdict: v, reports: reports, sent: w.counter("task bytes sent"), recv: w.counter("task bytes recv")}
		if err := errors.Join(verr, rerr); w.err == nil && err != nil {
			return nil, corrupt("supervisor task", err)
		}
		st.settled[outcomeKey{task: uint64(id)}] = rec
	}
	if err := w.done(); err != nil {
		return nil, corrupt("supervisor", err)
	}
	return st, nil
}

// restorePool restores every participant from its durable checkpoint and
// holds the pool to one consistent sequence: a file from a different point
// in time than the coordinator's would desynchronize the window cursors.
func restorePool(workers []*simWorker, seq uint64) error {
	for _, w := range workers {
		got, ok, err := w.participant.RestoreCheckpoint()
		if err != nil {
			return err
		}
		if !ok && seq != 0 {
			return fmt.Errorf("%w: supervisor checkpoint at seq %d but participant %s has none",
				ErrCheckpointCorrupt, seq, w.participant.ID())
		}
		if ok && got != seq {
			return fmt.Errorf("%w: participant %s checkpoint at seq %d, supervisor at %d",
				ErrCheckpointCorrupt, w.participant.ID(), got, seq)
		}
	}
	return nil
}
