package grid

// Rolling window commitments for long-horizon task streams.
//
// A bounded batch ends and takes its accountability with it: every task's
// commitment was checked while the task was in flight, and nothing binds the
// participant to the *history* of what it executed. An unbounded stream
// needs exactly that binding — a worker that served honestly for a million
// tasks and then starts replaying old roots should be caught without the
// supervisor retaining a million digests.
//
// Both sides therefore reduce every settled task to a fixed-size stream
// digest (taskID, scheme, and the task's primary payload — commitment root,
// upload, or hit list). Every WindowTasks settled tasks the participant
// builds a Merkle tree over the window's digests, absorbs its root into a
// hash-chain cursor shared with the supervisor (the per-window Eq. 4 of the
// paper, see hashchain.Cursor), and answers the cursor-derived challenge with
// one Merkle multiproof for the sampled leaves — the evidence form a CBS
// response uses. The supervisor holds only the digests of tasks not yet
// covered by a window (O(W + in-flight) memory), verifies each commit
// against them, and advances its own cursor in lockstep — so the k-th
// window's challenge depends on every window root up to and including k, and
// a participant cannot predict it without fixing its entire history first.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/merkle"
	"uncheatgrid/internal/shortsha"
)

// streamDigestPrefix domain-separates per-task stream digests from every
// other hash in the protocol.
const streamDigestPrefix = "uncheatgrid/stream-digest/v1"

// windowCursorPrefix domain-separates the window cursor's shared seed.
const windowCursorPrefix = "uncheatgrid/window-cursor/v1"

// streamDigest reduces one settled task to the fixed-size leaf value of its
// window commitment. body is the scheme's primary payload reduced by
// hashResults/hashIndices, or the commitment root directly.
func streamDigest(taskID uint64, kind SchemeKind, body []byte) []byte {
	var stack [128]byte
	msg := append(stack[:0], streamDigestPrefix...)
	msg = binary.LittleEndian.AppendUint64(msg, taskID)
	msg = append(msg, byte(kind))
	return sum256(append(msg, body...))
}

// hashResults condenses a full-result upload into one digest. Lengths are
// folded in so no two distinct uploads share an image by concatenation.
func hashResults(results [][]byte) []byte {
	var stack [512]byte
	msg := binary.AppendUvarint(stack[:0], uint64(len(results)))
	for _, r := range results {
		msg = binary.AppendUvarint(msg, uint64(len(r)))
		msg = append(msg, r...)
	}
	return sum256(msg)
}

// hashIndices condenses a ringer hit list into one digest.
func hashIndices(indices []uint64) []byte {
	var stack [512]byte
	msg := binary.AppendUvarint(stack[:0], uint64(len(indices)))
	for _, x := range indices {
		msg = binary.LittleEndian.AppendUint64(msg, x)
	}
	return sum256(msg)
}

// windowCursorSeed derives the shared cursor seed from the scheme spec.
// Both protocol sides hold the spec (it travels in every assignment), so
// both start their cursors from the same state; the chains diverge per
// participant from window 0 on, as each absorbs that participant's roots.
func windowCursorSeed(spec SchemeSpec) []byte {
	var stack [64]byte
	msg := append(stack[:0], windowCursorPrefix...)
	msg = append(msg, byte(spec.Kind))
	msg = binary.LittleEndian.AppendUint64(msg, uint64(spec.WindowTasks))
	msg = binary.LittleEndian.AppendUint64(msg, uint64(spec.WindowSamples))
	return sum256(msg)
}

// sum256 is shortsha.Sum256 into a digest of its own. The window helpers
// lay their messages out on the stack, spilling to the heap only for an
// upload or hit list too long for it.
func sum256(msg []byte) []byte {
	sum := shortsha.Sum256(msg)
	return sum[:]
}

// windowChain builds the hash chain the window cursors run on. One base
// hash per step: the per-window chain is a retention check, not the Eq. 5
// cost dial (that stays with the per-task NI-CBS challenges).
func windowChain() *hashchain.Chain {
	c, err := hashchain.New(1)
	if err != nil {
		panic("grid: hashchain.New(1): " + err.Error()) // 1 iteration is always valid
	}
	return c
}

// recordStreamDigest banks the task's stream digest into the ledger of the
// connection that carried it, at the decision point — which an attempt
// passes exactly once, resumed or not: the last moment the supervisor
// touches the task before sending the verdict. The participant appends its
// matching digest when the verdict is counted, so by the time a window
// commit covering this task arrives, the ledger entry is already in place
// (the commit travels in front of the final task's verdict ack, never ahead
// of this call).
func (pt *preparedTask) recordStreamDigest() {
	if pt.ledger == nil {
		return
	}
	st := &pt.st
	var body []byte
	kind := pt.assign.Spec.Kind
	switch kind {
	case SchemeCBS, SchemeNICBS:
		body = st.commitment.Root
	case SchemeNaive, SchemeDoubleCheck:
		body = hashResults(st.results)
	case SchemeRinger:
		body = hashIndices(st.hits)
	default:
		return
	}
	id := pt.assign.Task.ID
	pt.ledger.record(id, streamDigest(id, kind, body))
}

// participantWindows is a participant's rolling-commitment state: the
// digests of settled-but-uncommitted tasks and the challenge cursor shared
// with the supervisor. The cursor binds the history: it has absorbed every
// window root so far, so each window's challenge depends on all of them.
type participantWindows struct {
	mu      sync.Mutex
	w, m    int
	cursor  *hashchain.Cursor
	commits uint64
	ids     []uint64
	digests [][]byte
}

// newParticipantWindows starts rolling-commitment tracking for spec.
func newParticipantWindows(spec SchemeSpec) (*participantWindows, error) {
	cursor, err := windowChain().NewCursor(windowCursorSeed(spec))
	if err != nil {
		return nil, err
	}
	return &participantWindows{
		w:      spec.WindowTasks,
		m:      spec.WindowSamples,
		cursor: cursor,
	}, nil
}

// settle appends one counted task and, when the window fills, commits it:
// build the tree over the window's digests, absorb the root into the cursor,
// derive the challenge from the advanced state (so it depends on this very
// root — the pre-commitment argument), and emit the commit with the
// multiproof of the sampled leaves via send. The lock is held across build
// and send so commit order on the wire matches cursor order.
func (pw *participantWindows) settle(taskID uint64, digest []byte, send func(typ uint8, payload []byte) error) error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	pw.ids = append(pw.ids, taskID)
	pw.digests = append(pw.digests, digest)
	if len(pw.ids) < pw.w {
		return nil
	}

	tree, err := merkle.Build(pw.digests)
	if err != nil {
		return fmt.Errorf("grid: window tree: %w", err)
	}
	root := tree.Root()
	if err := pw.cursor.Advance(root); err != nil {
		return fmt.Errorf("grid: window cursor: %w", err)
	}
	idxs, err := pw.cursor.Indices(pw.m, uint64(pw.w))
	if err != nil {
		return fmt.Errorf("grid: window challenge: %w", err)
	}
	mp, err := tree.ProveMulti(idxs)
	if err != nil {
		return fmt.Errorf("grid: window proof: %w", err)
	}
	proof, err := mp.MarshalBinary()
	if err != nil {
		return fmt.Errorf("grid: window proof: %w", err)
	}
	msg := windowCommitMsg{
		Window:  pw.commits,
		Root:    root,
		TaskIDs: pw.ids,
		Proof:   proof,
	}
	payload := encodeWindowCommit(msg)
	pw.commits++
	pw.ids = nil
	pw.digests = nil
	return send(msgWindowCommit, payload)
}

// WindowLedger is the supervisor's per-link verifier of a participant's
// rolling commitments. It banks the stream digest of every decided task and,
// on each window commit, checks the sampled leaves' multiproof against its
// own digests before advancing the shared cursor. Verification failures are
// violations — counted, never terminal — because a cheating window is
// evidence to report, not a protocol breakdown; only an undecodable payload
// kills the session. Memory stays O(W + in-flight): digests leave the pend
// map as windows cover them.
type WindowLedger struct {
	mu         sync.Mutex
	w, m       int
	cursor     *hashchain.Cursor
	settled    uint64
	violations uint64
	lastReason string
	pend       map[uint64][]byte
}

// NewWindowLedger builds the verifier for one participant link.
func NewWindowLedger(spec SchemeSpec) (*WindowLedger, error) {
	if spec.WindowTasks < 1 {
		return nil, fmt.Errorf("%w: window ledger without a window", ErrBadConfig)
	}
	cursor, err := windowChain().NewCursor(windowCursorSeed(spec))
	if err != nil {
		return nil, err
	}
	return &WindowLedger{
		w:      spec.WindowTasks,
		m:      spec.WindowSamples,
		cursor: cursor,
		pend:   make(map[uint64][]byte),
	}, nil
}

// record banks one decided task's expected stream digest.
func (led *WindowLedger) record(taskID uint64, digest []byte) {
	led.mu.Lock()
	led.pend[taskID] = digest
	led.mu.Unlock()
}

// onCommit verifies one window commit. The cursor always advances with the
// received root — an honest participant's cursor did, and staying in
// lockstep is what lets verification resume after a counted violation.
func (led *WindowLedger) onCommit(payload []byte) error {
	m, err := decodeWindowCommit(payload)
	if err != nil {
		return err
	}
	led.mu.Lock()
	defer led.mu.Unlock()

	wantWindow := led.cursor.Window()
	if err := led.cursor.Advance(m.Root); err != nil {
		return fmt.Errorf("%w: window root: %v", ErrBadPayload, err)
	}
	reason := led.verifyLocked(m, wantWindow)
	// Covered tasks leave the pend map whatever the outcome: their retention
	// evidence has been spent, and an unbounded stream must not hoard it.
	for _, id := range m.TaskIDs {
		delete(led.pend, id)
	}
	if reason != "" {
		led.violations++
		led.lastReason = reason
		return nil
	}
	led.settled++
	return nil
}

// verifyLocked checks one commit against the banked digests and the
// cursor-derived challenge, returning a violation reason or "". The proof
// must be over the window's W leaves, answer exactly the challenged leaves
// (sorted, each once, as a multiproof lists them), reconstruct the committed
// root, and carry for each leaf the digest the supervisor banked for its
// task.
func (led *WindowLedger) verifyLocked(m windowCommitMsg, wantWindow uint64) string {
	if m.Window != wantWindow {
		return fmt.Sprintf("window %d committed out of order (want %d)", m.Window, wantWindow)
	}
	if len(m.TaskIDs) != led.w {
		return fmt.Sprintf("window %d covers %d tasks, want %d", m.Window, len(m.TaskIDs), led.w)
	}
	idxs, err := led.cursor.Indices(led.m, uint64(led.w))
	if err != nil {
		return fmt.Sprintf("window %d challenge: %v", m.Window, err)
	}
	slices.Sort(idxs)
	idxs = slices.Compact(idxs)
	// m aliases onCommit's payload, which stays intact until onCommit
	// returns: the proof may alias it too.
	var proof merkle.MultiProof
	if err := proof.UnmarshalAliased(m.Proof); err != nil {
		return fmt.Sprintf("window %d proof undecodable: %v", m.Window, err)
	}
	if proof.N != led.w {
		return fmt.Sprintf("window %d proof is over %d leaves, want %d", m.Window, proof.N, led.w)
	}
	if !slices.Equal(proof.Indices, idxs) {
		return fmt.Sprintf("window %d proof answers leaves %v, challenged %v", m.Window, proof.Indices, idxs)
	}
	if err := merkle.NewProofVerifier().VerifyMulti(m.Root, &proof); err != nil {
		return fmt.Sprintf("window %d proof: %v", m.Window, err)
	}
	for i, idx := range proof.Indices {
		id := m.TaskIDs[idx]
		want, ok := led.pend[id]
		if !ok {
			return fmt.Sprintf("window %d commits task %d the supervisor never decided", m.Window, id)
		}
		if string(proof.Values[i]) != string(want) {
			return fmt.Sprintf("window %d leaf %d disagrees with the decided digest of task %d", m.Window, idx, id)
		}
	}
	return ""
}

// WindowStats summarizes a link's rolling-commitment verification.
type WindowStats struct {
	// Settled counts windows whose sampled leaves all verified.
	Settled uint64
	// Violations counts windows that failed verification; LastViolation
	// explains the most recent one.
	Violations    uint64
	LastViolation string
	// Pending counts decided tasks not yet covered by a window.
	Pending int
}

// Stats snapshots the ledger's counters.
func (led *WindowLedger) Stats() WindowStats {
	led.mu.Lock()
	defer led.mu.Unlock()
	return WindowStats{
		Settled:       led.settled,
		Violations:    led.violations,
		LastViolation: led.lastReason,
		Pending:       len(led.pend),
	}
}
