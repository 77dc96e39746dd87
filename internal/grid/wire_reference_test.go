package grid

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The bytes.Reader decoders wire.go used before its slice walkers replaced
// them, kept verbatim as the reference the FuzzDecode* differentials hold
// the walkers to: same accept/reject, same decoded value, same sentinel.
// Three differences are deliberate. refDecodeCredit reads the two fields the
// grant still has (its third, the advertised window, left the wire with its
// last reader). refDecodeWindowCommit reads the window's proof as the one
// multiproof blob the commit now carries. And the three decoders that sized
// a result slice from a bare count of up to 2^26 — the 384-1,536 MB
// allocation the walkers refuse — cap that capacity hint at the bytes that
// remain, which changes no result and lets the fuzzer feed them such counts.

func refDecodeHello(payload []byte) (helloMsg, error) {
	var m helloMsg
	r := bytes.NewReader(payload)
	role, err := r.ReadByte()
	if err != nil {
		return m, fmt.Errorf("%w: hello role: %v", ErrBadPayload, err)
	}
	if role < helloRoleWorker || role > helloRoleClose || role == helloRoleRetired {
		return m, fmt.Errorf("%w: hello role %d", ErrBadPayload, role)
	}
	m.Role = role
	if m.Worker, err = refGetString(r); err != nil {
		return m, fmt.Errorf("%w: hello worker: %v", ErrBadPayload, err)
	}
	if m.Worker == "" {
		return m, fmt.Errorf("%w: empty hello worker identity", ErrBadPayload)
	}
	if len(m.Worker) > maxWorkerNameLen {
		return m, fmt.Errorf("%w: hello worker identity of %d bytes (max %d)",
			ErrBadPayload, len(m.Worker), maxWorkerNameLen)
	}
	if role >= helloRoleMux {
		if m.Route, err = binary.ReadUvarint(r); err != nil {
			return m, fmt.Errorf("%w: hello route: %v", ErrBadPayload, err)
		}
	}
	if r.Len() != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return m, nil
}

func refDecodeRouted(payload []byte) ([]routedEntry, error) {
	r := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: routed count: %v", ErrBadPayload, err)
	}
	if count > maxRoutedEntries {
		return nil, fmt.Errorf("%w: %d routed entries", ErrBadPayload, count)
	}
	if count == 0 {
		return nil, fmt.Errorf("%w: empty routed envelope", ErrBadPayload)
	}
	entries := make([]routedEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		var e routedEntry
		if e.Route, err = binary.ReadUvarint(r); err != nil {
			return nil, fmt.Errorf("%w: routed entry %d route: %v", ErrBadPayload, i, err)
		}
		if e.Type, err = r.ReadByte(); err != nil {
			return nil, fmt.Errorf("%w: routed entry %d type: %v", ErrBadPayload, i, err)
		}
		if e.Payload, err = refGetBytes(r); err != nil {
			return nil, fmt.Errorf("%w: routed entry %d payload: %v", ErrBadPayload, i, err)
		}
		entries = append(entries, e)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return entries, nil
}

func refDecodeCredit(payload []byte) (creditMsg, error) {
	var m creditMsg
	r := bytes.NewReader(payload)
	var err error
	if m.Route, err = binary.ReadUvarint(r); err != nil {
		return m, fmt.Errorf("%w: credit route: %v", ErrBadPayload, err)
	}
	if m.Bytes, err = binary.ReadUvarint(r); err != nil {
		return m, fmt.Errorf("%w: credit bytes: %v", ErrBadPayload, err)
	}
	if m.Bytes == 0 || m.Bytes > maxCreditGrant {
		return m, fmt.Errorf("%w: credit grant of %d bytes", ErrBadPayload, m.Bytes)
	}
	if r.Len() != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return m, nil
}

func refDecodeWindowCommit(payload []byte) (windowCommitMsg, error) {
	var m windowCommitMsg
	r := bytes.NewReader(payload)
	var err error
	if m.Window, err = binary.ReadUvarint(r); err != nil {
		return m, fmt.Errorf("%w: window number: %v", ErrBadPayload, err)
	}
	if m.Root, err = refGetBytes(r); err != nil {
		return m, fmt.Errorf("%w: window root: %v", ErrBadPayload, err)
	}
	if len(m.Root) == 0 || len(m.Root) > maxWindowRootLen {
		return m, fmt.Errorf("%w: window root of %d bytes", ErrBadPayload, len(m.Root))
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return m, fmt.Errorf("%w: window task count: %v", ErrBadPayload, err)
	}
	if count == 0 || count > maxWindowCommitTasks {
		return m, fmt.Errorf("%w: %d window tasks", ErrBadPayload, count)
	}
	m.TaskIDs = make([]uint64, 0, count)
	for i := uint64(0); i < count; i++ {
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return m, fmt.Errorf("%w: window task %d: %v", ErrBadPayload, i, err)
		}
		m.TaskIDs = append(m.TaskIDs, id)
	}
	if m.Proof, err = refGetBytes(r); err != nil {
		return m, fmt.Errorf("%w: window proof: %v", ErrBadPayload, err)
	}
	if r.Len() != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return m, nil
}

func refDecodeCheckpoint(payload []byte) (checkpointMsg, error) {
	var m checkpointMsg
	r := bytes.NewReader(payload)
	var err error
	if m.Seq, err = binary.ReadUvarint(r); err != nil {
		return m, fmt.Errorf("%w: checkpoint seq: %v", ErrBadPayload, err)
	}
	if r.Len() != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return m, nil
}

func refDecodeBatch(payload []byte) ([]taggedMsg, error) {
	if len(payload) < batchChecksumLen {
		return nil, fmt.Errorf("%w: batch frame of %d bytes", ErrFrameCorrupt, len(payload))
	}
	want := binary.LittleEndian.Uint32(payload[:batchChecksumLen])
	if got := crc32.ChecksumIEEE(payload[batchChecksumLen:]); got != want {
		return nil, fmt.Errorf("%w: batch checksum %08x, want %08x", ErrFrameCorrupt, got, want)
	}
	r := bytes.NewReader(payload[batchChecksumLen:])
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: batch count: %v", ErrBadPayload, err)
	}
	if count > maxBatchMsgs {
		return nil, fmt.Errorf("%w: %d batched messages", ErrBadPayload, count)
	}
	if count == 0 {
		if r.Len() != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
		}
		return nil, nil
	}
	msgs := make([]taggedMsg, 0, count)
	for i := uint64(0); i < count; i++ {
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: batch message %d task id: %v", ErrBadPayload, i, err)
		}
		typ, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: batch message %d type: %v", ErrBadPayload, i, err)
		}
		inner, err := refGetBytes(r)
		if err != nil {
			return nil, fmt.Errorf("%w: batch message %d payload: %v", ErrBadPayload, i, err)
		}
		msgs = append(msgs, taggedMsg{TaskID: id, Type: typ, Payload: inner})
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return msgs, nil
}

func refDecodeAssignment(payload []byte) (assignment, error) {
	var a assignment
	r := bytes.NewReader(payload)
	var err error
	if a.Task.ID, err = binary.ReadUvarint(r); err != nil {
		return a, fmt.Errorf("%w: task id: %v", ErrBadPayload, err)
	}
	if a.Task.Start, err = binary.ReadUvarint(r); err != nil {
		return a, fmt.Errorf("%w: task start: %v", ErrBadPayload, err)
	}
	if a.Task.N, err = binary.ReadUvarint(r); err != nil {
		return a, fmt.Errorf("%w: task n: %v", ErrBadPayload, err)
	}
	if a.Task.Workload, err = refGetString(r); err != nil {
		return a, fmt.Errorf("%w: workload: %v", ErrBadPayload, err)
	}
	if a.Task.Seed, err = binary.ReadUvarint(r); err != nil {
		return a, fmt.Errorf("%w: seed: %v", ErrBadPayload, err)
	}
	kind, err := r.ReadByte()
	if err != nil {
		return a, fmt.Errorf("%w: scheme kind: %v", ErrBadPayload, err)
	}
	a.Spec.Kind = SchemeKind(kind)
	m, err := binary.ReadUvarint(r)
	if err != nil {
		return a, fmt.Errorf("%w: m: %v", ErrBadPayload, err)
	}
	a.Spec.M = int(m)
	iters, err := binary.ReadUvarint(r)
	if err != nil {
		return a, fmt.Errorf("%w: chain iters: %v", ErrBadPayload, err)
	}
	a.Spec.ChainIters = int(iters)
	ell, err := binary.ReadUvarint(r)
	if err != nil {
		return a, fmt.Errorf("%w: subtree height: %v", ErrBadPayload, err)
	}
	a.Spec.SubtreeHeight = int(ell)
	wt, err := binary.ReadUvarint(r)
	if err != nil {
		return a, fmt.Errorf("%w: window tasks: %v", ErrBadPayload, err)
	}
	if wt > maxWindowCommitTasks {
		return a, fmt.Errorf("%w: window of %d tasks", ErrBadPayload, wt)
	}
	a.Spec.WindowTasks = int(wt)
	ws, err := binary.ReadUvarint(r)
	if err != nil {
		return a, fmt.Errorf("%w: window samples: %v", ErrBadPayload, err)
	}
	if ws > maxWindowSamples {
		return a, fmt.Errorf("%w: %d window samples", ErrBadPayload, ws)
	}
	a.Spec.WindowSamples = int(ws)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return a, fmt.Errorf("%w: ringer count: %v", ErrBadPayload, err)
	}
	if count > 1<<20 {
		return a, fmt.Errorf("%w: %d ringer images", ErrBadPayload, count)
	}
	for i := uint64(0); i < count; i++ {
		img, err := refGetBytes(r)
		if err != nil {
			return a, fmt.Errorf("%w: ringer image %d: %v", ErrBadPayload, i, err)
		}
		a.RingerImages = append(a.RingerImages, img)
	}
	if r.Len() != 0 {
		return a, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return a, nil
}

func refDecodeReports(payload []byte) ([]Report, error) {
	r := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: report count: %v", ErrBadPayload, err)
	}
	if count > 1<<24 {
		return nil, fmt.Errorf("%w: %d reports", ErrBadPayload, count)
	}
	reports := make([]Report, 0, min(count, uint64(r.Len())))
	for i := uint64(0); i < count; i++ {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: report %d input: %v", ErrBadPayload, i, err)
		}
		s, err := refGetString(r)
		if err != nil {
			return nil, fmt.Errorf("%w: report %d string: %v", ErrBadPayload, i, err)
		}
		reports = append(reports, Report{X: x, S: s})
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return reports, nil
}

func refDecodeResults(payload []byte) ([][]byte, error) {
	r := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: result count: %v", ErrBadPayload, err)
	}
	if count > maxTaskSize {
		return nil, fmt.Errorf("%w: %d results", ErrBadPayload, count)
	}
	results := make([][]byte, 0, min(count, uint64(r.Len())))
	for i := uint64(0); i < count; i++ {
		v, err := refGetBytes(r)
		if err != nil {
			return nil, fmt.Errorf("%w: result %d: %v", ErrBadPayload, i, err)
		}
		results = append(results, v)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return results, nil
}

func refDecodeChunk(payload []byte) (resultChunk, error) {
	var c resultChunk
	r := bytes.NewReader(payload)
	var err error
	if c.Seq, err = binary.ReadUvarint(r); err != nil {
		return c, fmt.Errorf("%w: chunk seq: %v", ErrBadPayload, err)
	}
	flag, err := r.ReadByte()
	if err != nil {
		return c, fmt.Errorf("%w: chunk final flag: %v", ErrBadPayload, err)
	}
	if flag > 1 {
		return c, fmt.Errorf("%w: chunk final flag %d", ErrBadPayload, flag)
	}
	c.Final = flag == 1
	if c.Data, err = refGetBytes(r); err != nil {
		return c, fmt.Errorf("%w: chunk data: %v", ErrBadPayload, err)
	}
	if r.Len() != 0 {
		return c, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return c, nil
}

func refDecodeResume(payload []byte) (resumeMsg, error) {
	var m resumeMsg
	r := bytes.NewReader(payload)
	assignRaw, err := refGetBytes(r)
	if err != nil {
		return m, fmt.Errorf("%w: resume assignment: %v", ErrBadPayload, err)
	}
	if m.Assignment, err = refDecodeAssignment(assignRaw); err != nil {
		return m, err
	}
	flags, err := r.ReadByte()
	if err != nil {
		return m, fmt.Errorf("%w: resume flags: %v", ErrBadPayload, err)
	}
	if flags >= resumeHasChallenge<<1 {
		return m, fmt.Errorf("%w: resume flags %#x", ErrBadPayload, flags)
	}
	m.HaveCommit = flags&resumeHaveCommit != 0
	m.HaveReports = flags&resumeHaveReports != 0
	m.HaveProofs = flags&resumeHaveProofs != 0
	m.HaveHits = flags&resumeHaveHits != 0
	m.ResultsDone = flags&resumeResultsDone != 0
	if m.Chunks, err = binary.ReadUvarint(r); err != nil {
		return m, fmt.Errorf("%w: resume chunk count: %v", ErrBadPayload, err)
	}
	if flags&resumeHasChallenge != 0 {
		if m.Challenge, err = refGetBytes(r); err != nil {
			return m, fmt.Errorf("%w: resume challenge: %v", ErrBadPayload, err)
		}
	}
	if r.Len() != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return m, nil
}

func refDecodeIndices(payload []byte) ([]uint64, error) {
	r := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: index count: %v", ErrBadPayload, err)
	}
	if count > maxTaskSize {
		return nil, fmt.Errorf("%w: %d indices", ErrBadPayload, count)
	}
	indices := make([]uint64, 0, min(count, uint64(r.Len())))
	for i := uint64(0); i < count; i++ {
		idx, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: index %d: %v", ErrBadPayload, i, err)
		}
		indices = append(indices, idx)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return indices, nil
}

func refDecodeVerdict(payload []byte) (Verdict, error) {
	r := bytes.NewReader(payload)
	flag, err := r.ReadByte()
	if err != nil {
		return Verdict{}, fmt.Errorf("%w: verdict flag: %v", ErrBadPayload, err)
	}
	reason, err := refGetString(r)
	if err != nil {
		return Verdict{}, fmt.Errorf("%w: verdict reason: %v", ErrBadPayload, err)
	}
	if r.Len() != 0 {
		return Verdict{}, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return Verdict{Accepted: flag == 1, Reason: reason}, nil
}

func refGetBytes(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("declared %d bytes, %d remain", n, r.Len())
	}
	out := make([]byte, n)
	// io.ReadFull, unlike a single Read call, loops over short reads and is
	// a no-op for zero-length fields, so this stays correct for any
	// io.Reader-backed source, not just bytes.Reader.
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

func refGetString(r *bytes.Reader) (string, error) {
	b, err := refGetBytes(r)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
