package grid

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"

	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
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
	// and supervisor → hub as the route consumer drains its inbox.
	msgCredit
	// msgWindowCommit carries a participant's rolling commitment for one
	// settled window of a long-horizon stream: the Merkle root over the
	// window's per-task digests, the task IDs in commitment order, and one
	// Merkle multiproof of the hash-chain-derived sample indices. Travels
	// as a ctrl-tagged batch sub-message (TaskID == ctrlTaskID).
	// Participant → supervisor.
	msgWindowCommit
	// msgCheckpoint orders the participant to write its durable state
	// (counters, window buffer, chain cursor) to its checkpoint file. Sent
	// only at a quiesced stream boundary, as a ctrl-tagged batch
	// sub-message. Supervisor → participant.
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

// walker reads one payload front to back without copying it: every read
// consumes bytes from the front of buf, and the first failure sticks — later
// reads return zero values — so a decoder is straight-line code that checks
// once, in done. Byte fields come back as capacity-bounded views of the
// payload; transport/pool.go states who owns what they alias.
type walker struct {
	buf []byte
	err error
}

func (w *walker) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: "+format, append([]any{ErrBadPayload}, args...)...)
	}
}

func (w *walker) uvarint(what string) uint64 {
	if w.err != nil {
		return 0
	}
	v, n := binary.Uvarint(w.buf)
	if n <= 0 {
		w.fail("%s: truncated or overlong varint", what)
		return 0
	}
	w.buf = w.buf[n:]
	return v
}

func (w *walker) byte(what string) byte {
	if w.err != nil {
		return 0
	}
	if len(w.buf) == 0 {
		w.fail("%s: payload ends", what)
		return 0
	}
	b := w.buf[0]
	w.buf = w.buf[1:]
	return b
}

func (w *walker) bytes(what string) []byte {
	n := w.uvarint(what)
	if w.err != nil {
		return nil
	}
	if n > uint64(len(w.buf)) {
		w.fail("%s: declared %d bytes, %d remain", what, n, len(w.buf))
		return nil
	}
	b := w.buf[:n:n]
	w.buf = w.buf[n:]
	return b
}

func (w *walker) string(what string) string { return string(w.bytes(what)) }

// count reads an element count and refuses one above limit or one the bytes
// that remain cannot hold at minBytes apiece, so a bare count never buys an
// allocation.
func (w *walker) count(what string, limit uint64, minBytes int) int {
	n := w.uvarint(what)
	if w.err == nil && (n > limit || n > uint64(len(w.buf)/minBytes)) {
		w.fail("%d %s in %d bytes (max %d)", n, what, len(w.buf), limit)
		return 0
	}
	return int(n)
}

// done reports the walk's first failure, or the bytes left over.
func (w *walker) done() error {
	if w.err == nil && len(w.buf) != 0 {
		w.fail("%d trailing bytes", len(w.buf))
	}
	return w.err
}

// uvarintLen reports how many bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// prefixedLen is the encoded size of an n-byte length-prefixed field.
func prefixedLen(n int) int { return uvarintLen(uint64(n)) + n }

func appendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendFlag(dst []byte, set bool) []byte {
	if set {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// helloMsg is the decoded msgHello payload. Route is meaningful only for
// the mux-family roles (mux/open/close); the worker role encodes none.
type helloMsg struct {
	Role   uint8
	Worker string
	Route  uint64
}

func encodeHello(m helloMsg) []byte {
	size := 1 + prefixedLen(len(m.Worker))
	if m.Role >= helloRoleMux {
		size += uvarintLen(m.Route)
	}
	out := appendString(append(make([]byte, 0, size), m.Role), m.Worker)
	if m.Role >= helloRoleMux {
		out = binary.AppendUvarint(out, m.Route)
	}
	return out
}

func decodeHello(payload []byte) (helloMsg, error) {
	w := walker{buf: payload}
	m := helloMsg{Role: w.byte("hello role")}
	if w.err == nil && (m.Role < helloRoleWorker || m.Role > helloRoleClose || m.Role == helloRoleRetired) {
		w.fail("hello role %d", m.Role)
	}
	m.Worker = w.string("hello worker")
	if w.err == nil && (m.Worker == "" || len(m.Worker) > maxWorkerNameLen) {
		w.fail("hello worker identity of %d bytes (want 1..%d)", len(m.Worker), maxWorkerNameLen)
	}
	if m.Role >= helloRoleMux {
		m.Route = w.uvarint("hello route")
	}
	return m, w.done()
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

// A routed entry and a batch sub-message share one wire shape — uvarint id,
// type byte, length-prefixed payload — of at least minEntryBytes.
const minEntryBytes = 3

func entrySize(id uint64, payload []byte) int {
	return uvarintLen(id) + 1 + prefixedLen(len(payload))
}

func appendEntry(dst []byte, id uint64, typ uint8, payload []byte) []byte {
	return appendBytes(append(binary.AppendUvarint(dst, id), typ), payload)
}

func (w *walker) entry(what string) (id uint64, typ uint8, payload []byte) {
	return w.uvarint(what), w.byte(what), w.bytes(what)
}

// carve hands out capacity-bounded pieces of one allocation: the private
// copies decodeBatch and decodeRouted make of a frame's sub-payloads, so a
// frame costs one allocation however many messages it carries.
type carve []byte

func (c *carve) copyOf(view []byte) []byte {
	n := copy(*c, view)
	own := (*c)[:n:n]
	*c = (*c)[n:]
	return own
}

// encodeRouted writes the envelope into a pooled frame buffer of exactly its
// size; like encodeBatch it sits on the relay hot path of every muxed link.
func encodeRouted(entries []routedEntry) []byte {
	size := uvarintLen(uint64(len(entries)))
	for _, e := range entries {
		size += entrySize(e.Route, e.Payload)
	}
	out := binary.AppendUvarint(transport.GetPayload(size)[:0], uint64(len(entries)))
	for _, e := range entries {
		out = appendEntry(out, e.Route, e.Type, e.Payload)
	}
	return out
}

// decodeRouted appends a msgRouted envelope's entries to dst, the scratch of
// the link's one reader. The inner payloads are private copies (one carve
// per envelope), so the caller may recycle the envelope buffer as soon as
// decode returns.
func decodeRouted(dst []routedEntry, payload []byte) ([]routedEntry, error) {
	w := walker{buf: payload}
	count := w.count("routed entries", maxRoutedEntries, minEntryBytes)
	if w.err == nil && count == 0 {
		w.fail("empty routed envelope")
	}
	base, total := len(dst), 0
	for i := 0; i < count && w.err == nil; i++ {
		var e routedEntry
		e.Route, e.Type, e.Payload = w.entry("routed entry")
		dst = append(dst, e)
		total += len(e.Payload)
	}
	if err := w.done(); err != nil {
		return dst[:base], err
	}
	own := make(carve, total)
	for i := base; i < len(dst); i++ {
		dst[i].Payload = own.copyOf(dst[i].Payload)
	}
	return dst, nil
}

// maxCreditGrant bounds a single credit grant so a hostile peer cannot
// overflow the receiver's signed credit balance with a handful of frames.
const maxCreditGrant = 1 << 40

// creditMsg is the decoded msgCredit payload: Bytes of receive window
// granted back to route Route's sender.
type creditMsg struct {
	Route uint64
	Bytes uint64
}

func encodeCredit(m creditMsg) []byte {
	out := make([]byte, 0, uvarintLen(m.Route)+uvarintLen(m.Bytes))
	return binary.AppendUvarint(binary.AppendUvarint(out, m.Route), m.Bytes)
}

func decodeCredit(payload []byte) (creditMsg, error) {
	w := walker{buf: payload}
	m := creditMsg{Route: w.uvarint("credit route"), Bytes: w.uvarint("credit bytes")}
	if w.err == nil && (m.Bytes == 0 || m.Bytes > maxCreditGrant) {
		w.fail("credit grant of %d bytes", m.Bytes)
	}
	return m, w.done()
}

// Bounds on a window's attacker-controlled sizes: a window never spans more
// tasks than one batch frame carries messages, a root is one digest, and a
// window challenges at most maxWindowSamples of its leaves.
const (
	maxWindowCommitTasks = 1 << 16
	maxWindowSamples     = 1 << 12
	maxWindowRootLen     = 64
)

// windowCommitMsg is the decoded msgWindowCommit payload: window number,
// the Merkle root over the window's per-task stream digests, the task IDs
// whose digests form the leaves (in leaf order), and the marshaled
// merkle.MultiProof of the chain-derived sample indices.
type windowCommitMsg struct {
	Window  uint64
	Root    []byte
	TaskIDs []uint64
	Proof   []byte
}

func encodeWindowCommit(m windowCommitMsg) []byte {
	size := uvarintLen(m.Window) + prefixedLen(len(m.Root)) +
		uvarintLen(uint64(len(m.TaskIDs))) + prefixedLen(len(m.Proof))
	for _, id := range m.TaskIDs {
		size += uvarintLen(id)
	}
	out := appendBytes(binary.AppendUvarint(make([]byte, 0, size), m.Window), m.Root)
	out = binary.AppendUvarint(out, uint64(len(m.TaskIDs)))
	for _, id := range m.TaskIDs {
		out = binary.AppendUvarint(out, id)
	}
	return appendBytes(out, m.Proof)
}

// decodeWindowCommit's Root and Proof alias payload.
func decodeWindowCommit(payload []byte) (windowCommitMsg, error) {
	w := walker{buf: payload}
	m := windowCommitMsg{Window: w.uvarint("window number"), Root: w.bytes("window root")}
	if w.err == nil && (len(m.Root) == 0 || len(m.Root) > maxWindowRootLen) {
		w.fail("window root of %d bytes", len(m.Root))
	}
	tasks := w.count("window tasks", maxWindowCommitTasks, 1)
	if w.err == nil && tasks == 0 {
		w.fail("window commit over no tasks")
	}
	m.TaskIDs = make([]uint64, 0, tasks)
	for i := 0; i < tasks && w.err == nil; i++ {
		m.TaskIDs = append(m.TaskIDs, w.uvarint("window task"))
	}
	m.Proof = w.bytes("window proof")
	return m, w.done()
}

// checkpointMsg is the decoded msgCheckpoint payload: the sequence number
// of the checkpoint being ordered, echoed nowhere (the ack is empty) but
// kept on the wire so a misrouted or replayed order is detectable.
type checkpointMsg struct {
	Seq uint64
}

func encodeCheckpoint(m checkpointMsg) []byte {
	return binary.AppendUvarint(make([]byte, 0, uvarintLen(m.Seq)), m.Seq)
}

func decodeCheckpoint(payload []byte) (checkpointMsg, error) {
	w := walker{buf: payload}
	m := checkpointMsg{Seq: w.uvarint("checkpoint seq")}
	return m, w.done()
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
func (t taggedMsg) wireSize() int64 { return int64(entrySize(t.TaskID, t.Payload)) }

// maxBatchMsgs bounds the sub-message count of one batch frame.
const maxBatchMsgs = 1 << 16

// batchChecksumLen is the size of the CRC-32 prefix on every batch frame.
// Sessions are the layer that survives lossy links, so their frames carry an
// integrity check: a garbled frame fails the checksum and is handled as a
// connection-level fault (quarantine and resume) instead of masquerading as
// a peer protocol violation.
const batchChecksumLen = 4

// encodeBatch writes the frame into a pooled frame buffer of exactly its
// size (wireSize is an exact encoder-length oracle): on a pipe the buffer
// the receiver recycles after decoding is the one the next flush draws.
// Batch encoding sits on the flush hot path of every pipelined session.
func encodeBatch(msgs []taggedMsg) []byte {
	size := batchChecksumLen + uvarintLen(uint64(len(msgs)))
	for _, m := range msgs {
		size += int(m.wireSize())
	}
	out := binary.AppendUvarint(transport.GetPayload(size)[:batchChecksumLen], uint64(len(msgs)))
	for _, m := range msgs {
		out = appendEntry(out, m.TaskID, m.Type, m.Payload)
	}
	binary.LittleEndian.PutUint32(out[:batchChecksumLen], crc32.ChecksumIEEE(out[batchChecksumLen:]))
	return out
}

// decodeBatch appends a batch frame's messages to dst, the scratch of the
// connection's one reader. The sub-payloads are private copies (one carve
// per frame), so the caller may recycle the frame buffer as soon as decode
// returns.
func decodeBatch(dst []taggedMsg, payload []byte) ([]taggedMsg, error) {
	if len(payload) < batchChecksumLen {
		return dst, fmt.Errorf("%w: batch frame of %d bytes", ErrFrameCorrupt, len(payload))
	}
	want := binary.LittleEndian.Uint32(payload[:batchChecksumLen])
	if got := crc32.ChecksumIEEE(payload[batchChecksumLen:]); got != want {
		return dst, fmt.Errorf("%w: batch checksum %08x, want %08x", ErrFrameCorrupt, got, want)
	}
	w := walker{buf: payload[batchChecksumLen:]}
	count := w.count("batched messages", maxBatchMsgs, minEntryBytes)
	base, total := len(dst), 0
	for i := 0; i < count && w.err == nil; i++ {
		var m taggedMsg
		m.TaskID, m.Type, m.Payload = w.entry("batch message")
		dst = append(dst, m)
		total += len(m.Payload)
	}
	if err := w.done(); err != nil {
		return dst[:base], err
	}
	own := make(carve, total)
	for i := base; i < len(dst); i++ {
		dst[i].Payload = own.copyOf(dst[i].Payload)
	}
	return dst, nil
}

// assignment is the decoded msgAssign payload.
type assignment struct {
	Task         Task
	Spec         SchemeSpec
	RingerImages [][]byte
}

// maxRingerImages bounds an assignment's planted-image count.
const maxRingerImages = 1 << 20

func (a assignment) encodedSize() int {
	size := uvarintLen(a.Task.ID) + uvarintLen(a.Task.Start) + uvarintLen(a.Task.N) +
		prefixedLen(len(a.Task.Workload)) + uvarintLen(a.Task.Seed) + 1 +
		uvarintLen(uint64(a.Spec.M)) + uvarintLen(uint64(a.Spec.ChainIters)) +
		uvarintLen(uint64(a.Spec.SubtreeHeight)) + uvarintLen(uint64(a.Spec.WindowTasks)) +
		uvarintLen(uint64(a.Spec.WindowSamples)) + uvarintLen(uint64(len(a.RingerImages)))
	for _, img := range a.RingerImages {
		size += prefixedLen(len(img))
	}
	return size
}

func appendAssignment(dst []byte, a assignment) []byte {
	dst = binary.AppendUvarint(dst, a.Task.ID)
	dst = binary.AppendUvarint(dst, a.Task.Start)
	dst = binary.AppendUvarint(dst, a.Task.N)
	dst = appendString(dst, a.Task.Workload)
	dst = binary.AppendUvarint(dst, a.Task.Seed)
	dst = append(dst, byte(a.Spec.Kind))
	dst = binary.AppendUvarint(dst, uint64(a.Spec.M))
	dst = binary.AppendUvarint(dst, uint64(a.Spec.ChainIters))
	dst = binary.AppendUvarint(dst, uint64(a.Spec.SubtreeHeight))
	dst = binary.AppendUvarint(dst, uint64(a.Spec.WindowTasks))
	dst = binary.AppendUvarint(dst, uint64(a.Spec.WindowSamples))
	dst = binary.AppendUvarint(dst, uint64(len(a.RingerImages)))
	for _, img := range a.RingerImages {
		dst = appendBytes(dst, img)
	}
	return dst
}

func encodeAssignment(a assignment) []byte {
	return appendAssignment(make([]byte, 0, a.encodedSize()), a)
}

// workloadNames interns the registry's names, so an assignment naming a
// registered workload decodes without allocating the name.
var workloadNames = func() map[string]string {
	names := make(map[string]string)
	for _, name := range workload.Names() {
		names[name] = name
	}
	return names
}()

// decodeAssignment's RingerImages alias payload.
func decodeAssignment(payload []byte) (assignment, error) {
	var a assignment
	w := walker{buf: payload}
	a.Task.ID = w.uvarint("task id")
	a.Task.Start = w.uvarint("task start")
	a.Task.N = w.uvarint("task n")
	name := w.bytes("workload")
	if known, ok := workloadNames[string(name)]; ok {
		a.Task.Workload = known
	} else {
		a.Task.Workload = string(name)
	}
	a.Task.Seed = w.uvarint("seed")
	a.Spec.Kind = SchemeKind(w.byte("scheme kind"))
	a.Spec.M = int(w.uvarint("m"))
	a.Spec.ChainIters = int(w.uvarint("chain iters"))
	a.Spec.SubtreeHeight = int(w.uvarint("subtree height"))
	wt := w.uvarint("window tasks")
	if w.err == nil && wt > maxWindowCommitTasks {
		w.fail("window of %d tasks", wt)
	}
	a.Spec.WindowTasks = int(wt)
	ws := w.uvarint("window samples")
	if w.err == nil && ws > maxWindowSamples {
		w.fail("%d window samples", ws)
	}
	a.Spec.WindowSamples = int(ws)
	if images := w.count("ringer images", maxRingerImages, 1); images > 0 {
		a.RingerImages = make([][]byte, 0, images)
		for i := 0; i < images && w.err == nil; i++ {
			a.RingerImages = append(a.RingerImages, w.bytes("ringer image"))
		}
	}
	return a, w.done()
}

func encodeReports(reports []Report) []byte {
	size := uvarintLen(uint64(len(reports)))
	for _, rep := range reports {
		size += uvarintLen(rep.X) + prefixedLen(len(rep.S))
	}
	out := binary.AppendUvarint(make([]byte, 0, size), uint64(len(reports)))
	for _, rep := range reports {
		out = appendString(binary.AppendUvarint(out, rep.X), rep.S)
	}
	return out
}

func decodeReports(payload []byte) ([]Report, error) {
	w := walker{buf: payload}
	count := w.count("reports", 1<<24, 2)
	reports := make([]Report, 0, count)
	for i := 0; i < count && w.err == nil; i++ {
		reports = append(reports, Report{X: w.uvarint("report input"), S: w.string("report string")})
	}
	return reports, w.done()
}

func encodeResults(results [][]byte) []byte {
	size := uvarintLen(uint64(len(results)))
	for _, v := range results {
		size += prefixedLen(len(v))
	}
	out := binary.AppendUvarint(make([]byte, 0, size), uint64(len(results)))
	for _, v := range results {
		out = appendBytes(out, v)
	}
	return out
}

// decodeResults returns views of payload, one table for n results.
func decodeResults(payload []byte) ([][]byte, error) {
	w := walker{buf: payload}
	count := w.count("results", maxTaskSize, 1)
	results := make([][]byte, 0, count)
	for i := 0; i < count && w.err == nil; i++ {
		results = append(results, w.bytes("result"))
	}
	return results, w.done()
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
	out := make([]byte, 0, uvarintLen(c.Seq)+1+prefixedLen(len(c.Data)))
	return appendBytes(appendFlag(binary.AppendUvarint(out, c.Seq), c.Final), c.Data)
}

// decodeChunk's Data aliases payload.
func decodeChunk(payload []byte) (resultChunk, error) {
	w := walker{buf: payload}
	c := resultChunk{Seq: w.uvarint("chunk seq")}
	flag := w.byte("chunk final flag")
	if flag > 1 {
		w.fail("chunk final flag %d", flag)
	}
	c.Final = flag == 1
	c.Data = w.bytes("chunk data")
	return c, w.done()
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

// Flag bits of the resumeMsg wire encoding, in the order flags lists them.
const (
	resumeHaveCommit = 1 << iota
	resumeHaveReports
	resumeHaveProofs
	resumeHaveHits
	resumeResultsDone
	resumeHasChallenge
)

func (m resumeMsg) flags() byte {
	var flags byte
	for bit, set := range [...]bool{m.HaveCommit, m.HaveReports, m.HaveProofs, m.HaveHits, m.ResultsDone, m.Challenge != nil} {
		if set {
			flags |= 1 << bit
		}
	}
	return flags
}

func encodeResume(m resumeMsg) []byte {
	inner := m.Assignment.encodedSize()
	size := prefixedLen(inner) + 1 + uvarintLen(m.Chunks)
	if m.Challenge != nil {
		size += prefixedLen(len(m.Challenge))
	}
	out := binary.AppendUvarint(make([]byte, 0, size), uint64(inner))
	out = append(appendAssignment(out, m.Assignment), m.flags())
	out = binary.AppendUvarint(out, m.Chunks)
	if m.Challenge != nil {
		out = appendBytes(out, m.Challenge)
	}
	return out
}

// decodeResume's Challenge and ringer images alias payload.
func decodeResume(payload []byte) (resumeMsg, error) {
	var m resumeMsg
	w := walker{buf: payload}
	inner := w.bytes("resume assignment")
	if w.err != nil {
		return m, w.err
	}
	var err error
	if m.Assignment, err = decodeAssignment(inner); err != nil {
		return m, err
	}
	flags := w.byte("resume flags")
	if flags >= resumeHasChallenge<<1 {
		w.fail("resume flags %#x", flags)
	}
	m.HaveCommit = flags&resumeHaveCommit != 0
	m.HaveReports = flags&resumeHaveReports != 0
	m.HaveProofs = flags&resumeHaveProofs != 0
	m.HaveHits = flags&resumeHaveHits != 0
	m.ResultsDone = flags&resumeResultsDone != 0
	m.Chunks = w.uvarint("resume chunk count")
	if flags&resumeHasChallenge != 0 {
		m.Challenge = w.bytes("resume challenge")
	}
	return m, w.done()
}

func encodeIndices(indices []uint64) []byte {
	size := uvarintLen(uint64(len(indices)))
	for _, idx := range indices {
		size += uvarintLen(idx)
	}
	out := binary.AppendUvarint(make([]byte, 0, size), uint64(len(indices)))
	for _, idx := range indices {
		out = binary.AppendUvarint(out, idx)
	}
	return out
}

func decodeIndices(payload []byte) ([]uint64, error) {
	w := walker{buf: payload}
	count := w.count("indices", maxTaskSize, 1)
	indices := make([]uint64, 0, count)
	for i := 0; i < count && w.err == nil; i++ {
		indices = append(indices, w.uvarint("index"))
	}
	return indices, w.done()
}

func encodeVerdict(v Verdict) []byte {
	out := make([]byte, 0, 1+prefixedLen(len(v.Reason)))
	return appendString(appendFlag(out, v.Accepted), v.Reason)
}

func decodeVerdict(payload []byte) (Verdict, error) {
	w := walker{buf: payload}
	v := Verdict{Accepted: w.byte("verdict flag") == 1, Reason: w.string("verdict reason")}
	return v, w.done()
}
