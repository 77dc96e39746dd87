package grid

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Message kinds on the supervisor↔participant wire. One byte each, carried
// in transport.Message.Type.
const (
	// msgAssign carries a Task, a SchemeSpec, and (ringer scheme only) the
	// planted images. Supervisor → participant.
	msgAssign uint8 = iota + 1
	// msgCommit carries the core.Commitment. Participant → supervisor.
	msgCommit
	// msgChallenge carries the core.Challenge. Supervisor → participant.
	msgChallenge
	// msgProofs carries the core.Response. Participant → supervisor.
	msgProofs
	// msgReports carries the screened results. Participant → supervisor.
	msgReports
	// msgResults carries a full result upload (naive and double-check
	// schemes). Participant → supervisor.
	msgResults
	// msgRingerHits carries the inputs matching planted ringer images.
	// Participant → supervisor.
	msgRingerHits
	// msgVerdict carries the supervisor's ruling. Supervisor → participant.
	msgVerdict
	// msgBatch carries several task-tagged sub-messages in one frame so
	// pipelined sessions can interleave tasks on one connection and coalesce
	// small messages (multi-assignment and multi-proof frames are both just
	// batches of the corresponding tagged kinds). Either direction.
	msgBatch
	// msgResultChunk carries one slice of a chunked full-result upload:
	// uploads whose encoding exceeds uploadChunkBytes travel as an ordered
	// chunk sequence instead of a single frame, so arbitrarily large tasks
	// fit under transport.MaxFrameBytes and the session batch writer can
	// interleave other tasks' messages between chunks. Participant →
	// supervisor.
	msgResultChunk
	// msgResume re-announces a task on a replacement connection: it carries
	// the original assignment plus the supervisor's per-task protocol
	// position (which participant messages it already holds, how many upload
	// chunks arrived, and the challenge it already issued) so the
	// participant can re-derive its deterministic state and replay only what
	// is missing. Supervisor → participant.
	msgResume
	// msgVerdictAck acknowledges a delivered verdict (empty payload). A
	// verdict frame lost to a transport fault would otherwise leave the
	// participant's accepted/rejected counters stale forever — the
	// supervisor treats a task as finished only once the verdict is acked,
	// and re-delivers unacked verdicts during the msgResume handshake.
	// Participant → supervisor.
	msgVerdictAck
	// msgHello is the broker-hub identity handshake: the first frame on any
	// link attached to a BrokerHub names the link's role. A worker-role
	// hello registers the participant link under its identity; a mux-role
	// hello attaches a supervisor link, and open/close hellos manage that
	// link's routes: an open hello asks the hub to bind a route to the
	// named registered worker, which is what makes routing sticky across
	// redials (a replacement route reaches the same participant, so the
	// msgResume machinery works through the relay). Consumed by the hub,
	// never relayed. Either endpoint → hub (close notices also hub →
	// supervisor).
	msgHello
	// msgRouted is the mux envelope of a multiplexed supervisor↔hub link:
	// one physical frame carrying one or more route-tagged inner frames, so
	// all of a supervisor's worker routes share a single connection and the
	// hub's writer can coalesce traffic across workers, not just tasks.
	// Either direction on a muxed link.
	msgRouted
	// msgCredit grants receive-window bytes back to a route's sender: the
	// receiver returns credit as a route's queued frames drain toward its
	// consumer, so one slow consumer exerts backpressure on its own route
	// instead of ballooning receiver memory or head-of-line-blocking the
	// shared link. Flows in both directions of a muxed link — hub →
	// supervisor as the worker-side writer drains a route's toWorker queue,
	// and supervisor → hub as the route consumer drains its inbox. Each
	// grant also advertises the granter's current adaptive window so the
	// peer can surface it in stats.
	msgCredit
	// msgWindowCommit carries a participant's rolling commitment for one
	// settled window of a long-horizon stream: the Merkle root over the
	// window's per-task digests, the task IDs in commitment order, and the
	// membership proofs for the hash-chain-derived sample indices. Travels
	// as a ctrl-tagged batch sub-message (TaskID == ctrlTaskID).
	// Participant → supervisor.
	msgWindowCommit
	// msgCheckpoint orders the participant to write its durable state
	// (counters, window buffer, chain cursor, stream frontier) to its
	// checkpoint file. Sent only at a quiesced stream boundary, as a
	// ctrl-tagged batch sub-message. Supervisor → participant.
	msgCheckpoint
	// msgCheckpointAck confirms the checkpoint file hit disk (empty
	// payload, ctrl-tagged). Participant → supervisor.
	msgCheckpointAck
)

// ctrlTaskID is the reserved task ID that tags session-scoped control
// messages (window commits, checkpoint orders) inside a pipelined batch
// frame. No real task can use it: task IDs are dense indices far below it.
const ctrlTaskID = ^uint64(0)

// wireDecoderFor is the wire manifest: every message kind mapped to the
// function that decodes its payload, "" for kinds whose payload is empty
// (msgVerdictAck) or raw bytes routed without decoding here (msgCommit,
// msgChallenge, msgProofs carry core-layer encodings; msgResultChunk data
// is reassembled before decodeResults sees it — decodeChunk parses the
// chunk envelope). gridlint's wireexhaustive analyzer checks the manifest
// is total and that every named decoder exists and is fuzzed, so adding a
// message kind without wiring up (and fuzzing) its decoder fails CI.
var wireDecoderFor = map[uint8]string{
	msgAssign:        "decodeAssignment",
	msgCommit:        "",
	msgChallenge:     "",
	msgProofs:        "",
	msgReports:       "decodeReports",
	msgResults:       "decodeResults",
	msgRingerHits:    "decodeIndices",
	msgVerdict:       "decodeVerdict",
	msgBatch:         "decodeBatch",
	msgResultChunk:   "decodeChunk",
	msgResume:        "decodeResume",
	msgVerdictAck:    "",
	msgHello:         "decodeHello",
	msgRouted:        "decodeRouted",
	msgCredit:        "decodeCredit",
	msgWindowCommit:  "decodeWindowCommit",
	msgCheckpoint:    "decodeCheckpoint",
	msgCheckpointAck: "",
}

// Hello roles carried in the msgHello payload.
const (
	// helloRoleWorker registers the sending link as the named participant.
	helloRoleWorker uint8 = 1
	// helloRoleRetired (2) once opened a supervisor link carrying a single
	// route. The value is never reused; decodeHello rejects it.
	helloRoleRetired uint8 = 2
	// helloRoleMux attaches the sending link as a supervisor link carrying
	// any number of routes; Worker names the supervisor for diagnostics.
	helloRoleMux uint8 = 3
	// helloRoleOpen opens route Route → registered participant Worker on an
	// already-attached muxed link.
	helloRoleOpen uint8 = 4
	// helloRoleClose announces that route Route (bound to Worker) is done:
	// supervisor → hub it means "no more frames for this route", hub →
	// supervisor it means "this route is finished or failed at the hub".
	helloRoleClose uint8 = 5
)

// maxWorkerNameLen bounds the identity string of a hub handshake.
const maxWorkerNameLen = 256

// helloMsg is the decoded msgHello payload. Route is meaningful only for
// the mux-family roles (mux/open/close); the worker role encodes none.
type helloMsg struct {
	Role   uint8
	Worker string
	Route  uint64
}

func encodeHello(m helloMsg) []byte {
	var buf bytes.Buffer
	buf.WriteByte(m.Role)
	putString(&buf, m.Worker)
	if m.Role >= helloRoleMux {
		putUvarint(&buf, m.Route)
	}
	return buf.Bytes()
}

func decodeHello(payload []byte) (helloMsg, error) {
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
	if m.Worker, err = getString(r); err != nil {
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

// routedEntry is one route-tagged inner frame inside a msgRouted envelope:
// the frame the route's endpoints exchange, prefixed with the route it
// belongs to. Envelopes carry no checksum of
// their own — the transport CRC covers the physical frame, and batch inner
// frames keep their session-layer CRC.
type routedEntry struct {
	Route   uint64
	Type    uint8
	Payload []byte
}

// innerFrameSize reports what the inner frame costs as a physical frame of
// its own (transport header + payload). Per-route ingress/egress accounting
// and credit grants are all denominated in this size, so route endpoint
// counters read like a direct connection's and both link endpoints
// debit/credit identical amounts.
func (e routedEntry) innerFrameSize() int64 {
	return frameOverheadBytes + int64(len(e.Payload))
}

// frameOverheadBytes mirrors transport.frameOverhead (type byte + length +
// CRC) for inner-frame accounting without exporting transport internals.
const frameOverheadBytes = 9

// maxRoutedEntries bounds the entry count of one envelope, mirroring
// maxBatchMsgs for the same attacker-controlled-count reason.
const maxRoutedEntries = maxBatchMsgs

// encodeRouted writes the envelope in one exact-size allocation; like
// encodeBatch it sits on the relay hot path of every muxed link.
func encodeRouted(entries []routedEntry) []byte {
	size := uvarintLen(uint64(len(entries)))
	for _, e := range entries {
		size += uvarintLen(e.Route) + 1 + uvarintLen(uint64(len(e.Payload))) + len(e.Payload)
	}
	out := make([]byte, size)
	off := binary.PutUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		off += binary.PutUvarint(out[off:], e.Route)
		out[off] = e.Type
		off++
		off += binary.PutUvarint(out[off:], uint64(len(e.Payload)))
		off += copy(out[off:], e.Payload)
	}
	return out
}

// decodeRouted parses a msgRouted envelope. Inner payloads are copied out
// of the envelope (getBytes allocates), so the caller may recycle the
// envelope buffer through the transport payload pool as soon as decode
// returns.
func decodeRouted(payload []byte) ([]routedEntry, error) {
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
		if e.Payload, err = getBytes(r); err != nil {
			return nil, fmt.Errorf("%w: routed entry %d payload: %v", ErrBadPayload, i, err)
		}
		entries = append(entries, e)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return entries, nil
}

// maxCreditGrant bounds a single credit grant so a hostile peer cannot
// overflow the receiver's signed credit balance with a handful of frames.
const maxCreditGrant = 1 << 40

// creditMsg is the decoded msgCredit payload: Bytes of receive window
// granted back to route Route's sender, plus the granter's current
// adaptive Window target. Window is advisory — the receiver of the grant
// surfaces it in stats but never spends it — yet it is still validated,
// because it crosses the trust boundary like every other field.
type creditMsg struct {
	Route  uint64
	Bytes  uint64
	Window uint64
}

func encodeCredit(m creditMsg) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, m.Route)
	putUvarint(&buf, m.Bytes)
	putUvarint(&buf, m.Window)
	return buf.Bytes()
}

func decodeCredit(payload []byte) (creditMsg, error) {
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
	if m.Window, err = binary.ReadUvarint(r); err != nil {
		return m, fmt.Errorf("%w: credit window: %v", ErrBadPayload, err)
	}
	if m.Window == 0 || m.Window > maxCreditGrant {
		return m, fmt.Errorf("%w: credit window of %d bytes", ErrBadPayload, m.Window)
	}
	if r.Len() != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return m, nil
}

// Bounds on a window commit's attacker-controlled counts: a window never
// spans more tasks than one batch frame carries messages, a root is one
// digest, and the proof count is the per-window sample count m.
const (
	maxWindowCommitTasks  = 1 << 16
	maxWindowCommitProofs = 1 << 12
	maxWindowRootLen      = 64
)

// windowCommitMsg is the decoded msgWindowCommit payload: window number,
// the Merkle root over the window's per-task stream digests, the task IDs
// whose digests form the leaves (in leaf order), and the marshaled
// merkle.Proof blobs for the chain-derived sample indices.
type windowCommitMsg struct {
	Window  uint64
	Root    []byte
	TaskIDs []uint64
	Proofs  [][]byte
}

func encodeWindowCommit(m windowCommitMsg) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, m.Window)
	putBytes(&buf, m.Root)
	putUvarint(&buf, uint64(len(m.TaskIDs)))
	for _, id := range m.TaskIDs {
		putUvarint(&buf, id)
	}
	putUvarint(&buf, uint64(len(m.Proofs)))
	for _, p := range m.Proofs {
		putBytes(&buf, p)
	}
	return buf.Bytes()
}

func decodeWindowCommit(payload []byte) (windowCommitMsg, error) {
	var m windowCommitMsg
	r := bytes.NewReader(payload)
	var err error
	if m.Window, err = binary.ReadUvarint(r); err != nil {
		return m, fmt.Errorf("%w: window number: %v", ErrBadPayload, err)
	}
	if m.Root, err = getBytes(r); err != nil {
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
	proofs, err := binary.ReadUvarint(r)
	if err != nil {
		return m, fmt.Errorf("%w: window proof count: %v", ErrBadPayload, err)
	}
	if proofs > maxWindowCommitProofs {
		return m, fmt.Errorf("%w: %d window proofs", ErrBadPayload, proofs)
	}
	for i := uint64(0); i < proofs; i++ {
		p, err := getBytes(r)
		if err != nil {
			return m, fmt.Errorf("%w: window proof %d: %v", ErrBadPayload, i, err)
		}
		m.Proofs = append(m.Proofs, p)
	}
	if r.Len() != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return m, nil
}

// checkpointMsg is the decoded msgCheckpoint payload: the sequence number
// of the checkpoint being ordered, echoed nowhere (the ack is empty) but
// kept on the wire so a misrouted or replayed order is detectable.
type checkpointMsg struct {
	Seq uint64
}

func encodeCheckpoint(m checkpointMsg) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, m.Seq)
	return buf.Bytes()
}

func decodeCheckpoint(payload []byte) (checkpointMsg, error) {
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

// taggedMsg is one task-scoped protocol message inside a pipelined session:
// an ordinary message kind plus the ID of the task that owns it, so both
// endpoints can demultiplex interleaved exchanges.
type taggedMsg struct {
	TaskID  uint64
	Type    uint8
	Payload []byte
}

// wireSize reports the encoded size of the tagged message inside a batch
// frame — the unit of per-task byte accounting in pipelined sessions.
func (t taggedMsg) wireSize() int64 {
	return int64(uvarintLen(t.TaskID)) + 1 +
		int64(uvarintLen(uint64(len(t.Payload)))) + int64(len(t.Payload))
}

// maxBatchMsgs bounds the sub-message count of one batch frame.
const maxBatchMsgs = 1 << 16

// batchChecksumLen is the size of the CRC-32 prefix on every batch frame.
// Sessions are the layer that survives lossy links, so their frames carry an
// integrity check: a garbled frame fails the checksum and is handled as a
// connection-level fault (quarantine and resume) instead of masquerading as
// a peer protocol violation.
const batchChecksumLen = 4

// encodeBatch writes the frame in one exact-size allocation: wireSize is an
// exact encoder-length oracle, so no bytes.Buffer growth, no checksum
// placeholder, and no copy-out are needed. Batch encoding sits on the flush
// hot path of every pipelined session.
func encodeBatch(msgs []taggedMsg) []byte {
	size := batchChecksumLen + uvarintLen(uint64(len(msgs)))
	for _, m := range msgs {
		size += int(m.wireSize())
	}
	out := make([]byte, size)
	off := batchChecksumLen
	off += binary.PutUvarint(out[off:], uint64(len(msgs)))
	for _, m := range msgs {
		off += binary.PutUvarint(out[off:], m.TaskID)
		out[off] = m.Type
		off++
		off += binary.PutUvarint(out[off:], uint64(len(m.Payload)))
		off += copy(out[off:], m.Payload)
	}
	binary.LittleEndian.PutUint32(out[:batchChecksumLen], crc32.ChecksumIEEE(out[batchChecksumLen:]))
	return out
}

func decodeBatch(payload []byte) ([]taggedMsg, error) {
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
		inner, err := getBytes(r)
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

// assignment is the decoded msgAssign payload.
type assignment struct {
	Task         Task
	Spec         SchemeSpec
	RingerImages [][]byte
}

func encodeAssignment(a assignment) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, a.Task.ID)
	putUvarint(&buf, a.Task.Start)
	putUvarint(&buf, a.Task.N)
	putString(&buf, a.Task.Workload)
	putUvarint(&buf, a.Task.Seed)
	buf.WriteByte(byte(a.Spec.Kind))
	putUvarint(&buf, uint64(a.Spec.M))
	putUvarint(&buf, uint64(a.Spec.ChainIters))
	putUvarint(&buf, uint64(a.Spec.SubtreeHeight))
	putUvarint(&buf, uint64(a.Spec.WindowTasks))
	putUvarint(&buf, uint64(a.Spec.WindowSamples))
	putUvarint(&buf, uint64(len(a.RingerImages)))
	for _, img := range a.RingerImages {
		putBytes(&buf, img)
	}
	return buf.Bytes()
}

func decodeAssignment(payload []byte) (assignment, error) {
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
	if a.Task.Workload, err = getString(r); err != nil {
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
	if ws > maxWindowCommitProofs {
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
		img, err := getBytes(r)
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

func encodeReports(reports []Report) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, uint64(len(reports)))
	for _, rep := range reports {
		putUvarint(&buf, rep.X)
		putString(&buf, rep.S)
	}
	return buf.Bytes()
}

func decodeReports(payload []byte) ([]Report, error) {
	r := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: report count: %v", ErrBadPayload, err)
	}
	if count > 1<<24 {
		return nil, fmt.Errorf("%w: %d reports", ErrBadPayload, count)
	}
	reports := make([]Report, 0, count)
	for i := uint64(0); i < count; i++ {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: report %d input: %v", ErrBadPayload, i, err)
		}
		s, err := getString(r)
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

func encodeResults(results [][]byte) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, uint64(len(results)))
	for _, v := range results {
		putBytes(&buf, v)
	}
	return buf.Bytes()
}

func decodeResults(payload []byte) ([][]byte, error) {
	r := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: result count: %v", ErrBadPayload, err)
	}
	if count > maxTaskSize {
		return nil, fmt.Errorf("%w: %d results", ErrBadPayload, count)
	}
	results := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		v, err := getBytes(r)
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

// uploadChunkBytes is both the threshold above which a full-result upload
// is chunked and the data size of each chunk. It is far below
// transport.MaxFrameBytes so arbitrarily large result sets fit, and small
// enough that the session batch writer can interleave other tasks' messages
// between chunks instead of stalling the link behind one huge frame. A
// variable so tests can exercise the chunk path without gigabyte uploads.
var uploadChunkBytes = 4 << 20

// maxUploadBytes bounds the reassembled size of a chunked upload, the
// analogue of the per-payload decode limits for attacker-controlled chunk
// streams.
const maxUploadBytes int64 = 1 << 31

// resultChunk is one decoded msgResultChunk: the Seq-th slice of the encoded
// result vector, with Final marking the last chunk.
type resultChunk struct {
	Seq   uint64
	Final bool
	Data  []byte
}

func encodeChunk(c resultChunk) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, c.Seq)
	if c.Final {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	putBytes(&buf, c.Data)
	return buf.Bytes()
}

func decodeChunk(payload []byte) (resultChunk, error) {
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
	if c.Data, err = getBytes(r); err != nil {
		return c, fmt.Errorf("%w: chunk data: %v", ErrBadPayload, err)
	}
	if r.Len() != 0 {
		return c, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return c, nil
}

// resumeMsg is the decoded msgResume payload: the original assignment plus
// the supervisor's record of the exchange so far, from which a participant
// re-derives its deterministic state and replays only what is missing.
type resumeMsg struct {
	Assignment assignment
	// HaveCommit/HaveReports/HaveProofs/HaveHits record which
	// participant→supervisor messages the supervisor already holds.
	HaveCommit, HaveReports, HaveProofs, HaveHits bool
	// Chunks counts upload chunks already received; ResultsDone marks a
	// complete upload (chunked or single-frame).
	Chunks      uint64
	ResultsDone bool
	// Challenge replays the marshaled challenge the supervisor already
	// issued (interactive CBS); nil when none was sent.
	Challenge []byte
}

// Flag bits of the resumeMsg wire encoding.
const (
	resumeHaveCommit = 1 << iota
	resumeHaveReports
	resumeHaveProofs
	resumeHaveHits
	resumeResultsDone
	resumeHasChallenge
)

func encodeResume(m resumeMsg) []byte {
	var buf bytes.Buffer
	putBytes(&buf, encodeAssignment(m.Assignment))
	var flags byte
	if m.HaveCommit {
		flags |= resumeHaveCommit
	}
	if m.HaveReports {
		flags |= resumeHaveReports
	}
	if m.HaveProofs {
		flags |= resumeHaveProofs
	}
	if m.HaveHits {
		flags |= resumeHaveHits
	}
	if m.ResultsDone {
		flags |= resumeResultsDone
	}
	if m.Challenge != nil {
		flags |= resumeHasChallenge
	}
	buf.WriteByte(flags)
	putUvarint(&buf, m.Chunks)
	if m.Challenge != nil {
		putBytes(&buf, m.Challenge)
	}
	return buf.Bytes()
}

func decodeResume(payload []byte) (resumeMsg, error) {
	var m resumeMsg
	r := bytes.NewReader(payload)
	assignRaw, err := getBytes(r)
	if err != nil {
		return m, fmt.Errorf("%w: resume assignment: %v", ErrBadPayload, err)
	}
	if m.Assignment, err = decodeAssignment(assignRaw); err != nil {
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
		if m.Challenge, err = getBytes(r); err != nil {
			return m, fmt.Errorf("%w: resume challenge: %v", ErrBadPayload, err)
		}
	}
	if r.Len() != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return m, nil
}

func encodeIndices(indices []uint64) []byte {
	var buf bytes.Buffer
	putUvarint(&buf, uint64(len(indices)))
	for _, idx := range indices {
		putUvarint(&buf, idx)
	}
	return buf.Bytes()
}

func decodeIndices(payload []byte) ([]uint64, error) {
	r := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: index count: %v", ErrBadPayload, err)
	}
	if count > maxTaskSize {
		return nil, fmt.Errorf("%w: %d indices", ErrBadPayload, count)
	}
	indices := make([]uint64, 0, count)
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

func encodeVerdict(v Verdict) []byte {
	var buf bytes.Buffer
	if v.Accepted {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	putString(&buf, v.Reason)
	return buf.Bytes()
}

func decodeVerdict(payload []byte) (Verdict, error) {
	r := bytes.NewReader(payload)
	flag, err := r.ReadByte()
	if err != nil {
		return Verdict{}, fmt.Errorf("%w: verdict flag: %v", ErrBadPayload, err)
	}
	reason, err := getString(r)
	if err != nil {
		return Verdict{}, fmt.Errorf("%w: verdict reason: %v", ErrBadPayload, err)
	}
	if r.Len() != 0 {
		return Verdict{}, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, r.Len())
	}
	return Verdict{Accepted: flag == 1, Reason: reason}, nil
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putBytes(buf *bytes.Buffer, b []byte) {
	putUvarint(buf, uint64(len(b)))
	buf.Write(b)
}

func putString(buf *bytes.Buffer, s string) {
	putUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func getBytes(r *bytes.Reader) ([]byte, error) {
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

// uvarintLen reports how many bytes v occupies in uvarint encoding.
func uvarintLen(v uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], v)
}

func getString(r *bytes.Reader) (string, error) {
	b, err := getBytes(r)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
