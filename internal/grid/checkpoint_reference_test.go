package grid

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"uncheatgrid/internal/hashchain"
)

// The bytes.Reader decoders checkpoint.go and sim_checkpoint.go used before
// their walkers replaced them, kept as the reference the checkpoint fuzz
// differentials hold the walkers to: same accept/reject, same decoded
// value, ErrCheckpointCorrupt on both sides. They reuse the wire
// references' refGetBytes/refGetString. Three differences are deliberate:
//   - refParseCheckpointFile accepts version 2, the format that dropped
//     the participant's full-stream frontier, as well as version 1.
//   - refDecodeParticipantWindows reads a version-1 file's frontier as one
//     opaque length-prefixed field; the builder that restored it is gone.
//   - The walkers refuse a counter that would come back negative (one
//     above MaxInt64) and compare the next task with the run's length
//     before converting it; the references cast unchecked, so they accept
//     such a file with negative counters or a next task of MinInt64.

// refCheckpointMagic is the parent's magic with the version-1 byte.
var refCheckpointMagic = []byte{'U', 'G', 'C', 'P', 0x01}

func refParseCheckpointFile(data []byte) ([]byte, error) {
	if len(data) < len(refCheckpointMagic)+1+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCheckpointCorrupt, len(data))
	}
	v := len(refCheckpointMagic) - 1
	if !bytes.Equal(data[:v], refCheckpointMagic[:v]) || data[v] < 1 || data[v] > 2 {
		return nil, fmt.Errorf("%w: bad magic or version", ErrCheckpointCorrupt)
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	r := bytes.NewReader(body[len(refCheckpointMagic):])
	n, err := binary.ReadUvarint(r)
	if err != nil || n != uint64(r.Len()) {
		return nil, fmt.Errorf("%w: payload length", ErrCheckpointCorrupt)
	}
	payload := make([]byte, n)
	copy(payload, body[len(body)-int(n):])
	return payload, nil
}

func refDecodeCheckpointPayload(p *Participant, version byte, payload []byte) (uint64, error) {
	bad := func(field string, err error) error {
		return fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, field, err)
	}
	r := bytes.NewReader(payload)
	seq, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, bad("seq", err)
	}
	id, err := refGetString(r)
	if err != nil {
		return 0, bad("id", err)
	}
	if id != p.id {
		return 0, fmt.Errorf("%w: checkpoint of participant %q restored into %q", ErrCheckpointCorrupt, id, p.id)
	}
	behavior, err := refGetString(r)
	if err != nil {
		return 0, bad("behavior", err)
	}
	var counters [4]uint64
	for i, name := range []string{"evals", "tasks", "accepted", "rejected"} {
		if counters[i], err = binary.ReadUvarint(r); err != nil {
			return 0, bad(name, err)
		}
	}
	hasWindows, err := r.ReadByte()
	if err != nil || hasWindows > 1 {
		return 0, bad("windows flag", err)
	}
	var windows *participantWindows
	if hasWindows == 1 {
		if windows, err = refDecodeParticipantWindows(r, version); err != nil {
			return 0, err
		}
	}
	if r.Len() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, r.Len())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.behavior = behavior
	p.evals = int64(counters[0])
	p.tasks = int(counters[1])
	p.accepted = int(counters[2])
	p.rejected = int(counters[3])
	p.windows = windows
	return seq, nil
}

func refDecodeParticipantWindows(r *bytes.Reader, version byte) (*participantWindows, error) {
	bad := func(field string, err error) error {
		return fmt.Errorf("%w: windows %s: %v", ErrCheckpointCorrupt, field, err)
	}
	w, err := binary.ReadUvarint(r)
	if err != nil || w < 1 || w > maxWindowCommitTasks {
		return nil, bad("w", err)
	}
	m, err := binary.ReadUvarint(r)
	if err != nil || m < 1 || m > w {
		return nil, bad("m", err)
	}
	commits, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, bad("commits", err)
	}
	cursorState, err := refGetBytes(r)
	if err != nil {
		return nil, bad("cursor state", err)
	}
	cursorWindow, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, bad("cursor window", err)
	}
	cursor, err := windowChain().RestoreCursor(hashchain.CursorSnapshot{State: cursorState, Window: cursorWindow})
	if err != nil {
		return nil, bad("cursor", err)
	}
	pendN, err := binary.ReadUvarint(r)
	if err != nil || pendN >= w {
		return nil, bad("pending count", err)
	}
	ids := make([]uint64, pendN)
	digests := make([][]byte, pendN)
	for i := range ids {
		if ids[i], err = binary.ReadUvarint(r); err != nil {
			return nil, bad("pending id", err)
		}
		if digests[i], err = refGetBytes(r); err != nil {
			return nil, bad("pending digest", err)
		}
	}
	if version == 1 {
		if _, err := refGetBytes(r); err != nil {
			return nil, bad("stream snapshot", err)
		}
	}
	return &participantWindows{
		w:       int(w),
		m:       int(m),
		cursor:  cursor,
		commits: commits,
		ids:     ids,
		digests: digests,
	}, nil
}

func refDecodeWindowLedger(spec SchemeSpec, data []byte) (*WindowLedger, error) {
	bad := func(field string, err error) error {
		return fmt.Errorf("%w: ledger %s: %v", ErrCheckpointCorrupt, field, err)
	}
	led, err := NewWindowLedger(spec)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(data)
	cursorState, err := refGetBytes(r)
	if err != nil {
		return nil, bad("cursor state", err)
	}
	cursorWindow, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, bad("cursor window", err)
	}
	if led.cursor, err = windowChain().RestoreCursor(hashchain.CursorSnapshot{State: cursorState, Window: cursorWindow}); err != nil {
		return nil, bad("cursor", err)
	}
	if led.settled, err = binary.ReadUvarint(r); err != nil {
		return nil, bad("settled", err)
	}
	if led.violations, err = binary.ReadUvarint(r); err != nil {
		return nil, bad("violations", err)
	}
	if led.lastReason, err = refGetString(r); err != nil {
		return nil, bad("last reason", err)
	}
	pendN, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, bad("pending count", err)
	}
	for i := uint64(0); i < pendN; i++ {
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, bad("pending id", err)
		}
		digest, err := refGetBytes(r)
		if err != nil {
			return nil, bad("pending digest", err)
		}
		led.pend[id] = digest
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: ledger: %d trailing bytes", ErrCheckpointCorrupt, r.Len())
	}
	return led, nil
}

func refDecodeSimState(cfg SimConfig, payload []byte) (*simState, error) {
	st, err := newSimState(cfg)
	if err != nil {
		return nil, err
	}
	bad := func(field string, err error) error {
		return fmt.Errorf("%w: supervisor %s: %v", ErrCheckpointCorrupt, field, err)
	}
	r := bytes.NewReader(payload)
	if st.seq, err = binary.ReadUvarint(r); err != nil {
		return nil, bad("seq", err)
	}
	var scalars [4]uint64
	for i, name := range []string{"next task", "evals", "bytes sent", "bytes recv"} {
		if scalars[i], err = binary.ReadUvarint(r); err != nil {
			return nil, bad(name, err)
		}
	}
	st.nextTask = int(scalars[0])
	st.supEvals = int64(scalars[1])
	st.supSent = int64(scalars[2])
	st.supRecv = int64(scalars[3])
	n, err := binary.ReadUvarint(r)
	if err != nil || int(n) != len(st.partSent) {
		return nil, fmt.Errorf("%w: checkpoint covers %d participants, pool has %d",
			ErrCheckpointCorrupt, n, len(st.partSent))
	}
	for i := 0; i < int(n); i++ {
		var counters [2]uint64
		for j, name := range []string{"participant sent", "participant recv"} {
			if counters[j], err = binary.ReadUvarint(r); err != nil {
				return nil, bad(name, err)
			}
		}
		st.partSent[i], st.partRecv[i] = int64(counters[0]), int64(counters[1])
		hasLedger, err := r.ReadByte()
		if err != nil || hasLedger > 1 {
			return nil, bad("ledger flag", err)
		}
		if (hasLedger == 1) != (st.ledgers != nil) {
			return nil, fmt.Errorf("%w: checkpoint and config disagree on window commitments", ErrCheckpointCorrupt)
		}
		if hasLedger == 1 {
			data, err := refGetBytes(r)
			if err != nil {
				return nil, bad("ledger", err)
			}
			if st.ledgers[i], err = refDecodeWindowLedger(cfg.Spec, data); err != nil {
				return nil, err
			}
		}
	}
	if st.nextTask > cfg.Tasks {
		return nil, fmt.Errorf("%w: checkpoint at task %d beyond the %d-task run", ErrCheckpointCorrupt, st.nextTask, cfg.Tasks)
	}
	for id := 0; id < st.nextTask; id++ {
		vb, err := refGetBytes(r)
		if err != nil {
			return nil, bad("verdict", err)
		}
		v, err := decodeVerdict(vb)
		if err != nil {
			return nil, bad("verdict", err)
		}
		rb, err := refGetBytes(r)
		if err != nil {
			return nil, bad("reports", err)
		}
		reports, err := decodeReports(rb)
		if err != nil {
			return nil, bad("reports", err)
		}
		var taskBytes [2]uint64
		for j, name := range []string{"task bytes sent", "task bytes recv"} {
			if taskBytes[j], err = binary.ReadUvarint(r); err != nil {
				return nil, bad(name, err)
			}
		}
		st.settled[outcomeKey{task: uint64(id)}] = settledTask{v, reports, int64(taskBytes[0]), int64(taskBytes[1])}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: supervisor checkpoint: %d trailing bytes", ErrCheckpointCorrupt, r.Len())
	}
	return st, nil
}
