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
	"bytes"
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
	st, err := newSimState(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointDir == "" {
		return st, nil
	}
	payload, err := readCheckpointFile(supervisorCheckpointPath(cfg.CheckpointDir))
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	if err := st.decode(cfg, payload); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *simState) save(cfg SimConfig) error {
	payload, err := st.encode()
	if err != nil {
		return err
	}
	return writeCheckpointFile(supervisorCheckpointPath(cfg.CheckpointDir), payload)
}

func (st *simState) encode() ([]byte, error) {
	var buf bytes.Buffer
	putUvarint(&buf, st.seq)
	putUvarint(&buf, uint64(st.nextTask))
	putUvarint(&buf, uint64(st.supEvals))
	putUvarint(&buf, uint64(st.supSent))
	putUvarint(&buf, uint64(st.supRecv))
	putUvarint(&buf, uint64(len(st.partSent)))
	for i := range st.partSent {
		putUvarint(&buf, uint64(st.partSent[i]))
		putUvarint(&buf, uint64(st.partRecv[i]))
		if st.ledgers == nil {
			buf.WriteByte(0)
			continue
		}
		buf.WriteByte(1)
		putBytes(&buf, st.ledgers[i].encodeState())
	}
	// Settled tasks are exactly [0, nextTask): segments complete in full
	// before a checkpoint is taken, and checkpointed runs are unreplicated.
	for id := 0; id < st.nextTask; id++ {
		rec, ok := st.settled[outcomeKey{task: uint64(id)}]
		if !ok {
			return nil, fmt.Errorf("grid: checkpoint: no verdict for settled task %d", id)
		}
		putBytes(&buf, encodeVerdict(rec.verdict))
		putBytes(&buf, encodeReports(rec.reports))
		putUvarint(&buf, uint64(rec.sent))
		putUvarint(&buf, uint64(rec.recv))
	}
	return buf.Bytes(), nil
}

func (st *simState) decode(cfg SimConfig, payload []byte) error {
	bad := func(field string, err error) error {
		return fmt.Errorf("%w: supervisor %s: %v", ErrCheckpointCorrupt, field, err)
	}
	r := bytes.NewReader(payload)
	var err error
	if st.seq, err = binary.ReadUvarint(r); err != nil {
		return bad("seq", err)
	}
	var scalars [4]uint64
	for i, name := range []string{"next task", "evals", "bytes sent", "bytes recv"} {
		if scalars[i], err = binary.ReadUvarint(r); err != nil {
			return bad(name, err)
		}
	}
	st.nextTask = int(scalars[0])
	st.supEvals = int64(scalars[1])
	st.supSent = int64(scalars[2])
	st.supRecv = int64(scalars[3])
	n, err := binary.ReadUvarint(r)
	if err != nil || int(n) != len(st.partSent) {
		return fmt.Errorf("%w: checkpoint covers %d participants, pool has %d",
			ErrCheckpointCorrupt, n, len(st.partSent))
	}
	for i := 0; i < int(n); i++ {
		var counters [2]uint64
		for j, name := range []string{"participant sent", "participant recv"} {
			if counters[j], err = binary.ReadUvarint(r); err != nil {
				return bad(name, err)
			}
		}
		st.partSent[i], st.partRecv[i] = int64(counters[0]), int64(counters[1])
		hasLedger, err := r.ReadByte()
		if err != nil || hasLedger > 1 {
			return bad("ledger flag", err)
		}
		if (hasLedger == 1) != (st.ledgers != nil) {
			return fmt.Errorf("%w: checkpoint and config disagree on window commitments", ErrCheckpointCorrupt)
		}
		if hasLedger == 1 {
			data, err := getBytes(r)
			if err != nil {
				return bad("ledger", err)
			}
			if st.ledgers[i], err = restoreWindowLedger(cfg.Spec, data); err != nil {
				return err
			}
		}
	}
	if st.nextTask > cfg.Tasks {
		return fmt.Errorf("%w: checkpoint at task %d beyond the %d-task run", ErrCheckpointCorrupt, st.nextTask, cfg.Tasks)
	}
	for id := 0; id < st.nextTask; id++ {
		vb, err := getBytes(r)
		if err != nil {
			return bad("verdict", err)
		}
		v, err := decodeVerdict(vb)
		if err != nil {
			return bad("verdict", err)
		}
		rb, err := getBytes(r)
		if err != nil {
			return bad("reports", err)
		}
		reports, err := decodeReports(rb)
		if err != nil {
			return bad("reports", err)
		}
		var taskBytes [2]uint64
		for j, name := range []string{"task bytes sent", "task bytes recv"} {
			if taskBytes[j], err = binary.ReadUvarint(r); err != nil {
				return bad(name, err)
			}
		}
		st.settled[outcomeKey{task: uint64(id)}] = settledTask{v, reports, int64(taskBytes[0]), int64(taskBytes[1])}
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: supervisor checkpoint: %d trailing bytes", ErrCheckpointCorrupt, r.Len())
	}
	return nil
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
