package grid

// Durable checkpoints for long-horizon runs.
//
// A checkpoint file is a small, self-verifying envelope:
//
//	"UGCP" | version (1 byte) | uvarint payload length | payload | CRC32
//
// The CRC (IEEE, little-endian) covers everything before it, so torn
// writes, truncation, and bit rot all surface as ErrCheckpointCorrupt
// instead of silently restoring garbage. Files are written to a temp name
// and renamed into place, so a crash mid-write leaves the previous
// checkpoint intact.
//
// Checkpoints are taken at quiesce points — the stream drain barrier —
// so neither side serializes in-flight task state: the participant saves
// its counters and rolling-window state, the supervisor (via the sim or
// embedding application) saves its window ledgers and progress cursor.
//
// Version 2 is written. A participant payload is, in uvarints and
// length-prefixed fields,
//
//	seq | id | behavior | evals | tasks | accepted | rejected | windows flag (1 byte) | windows
//	windows = w | m | commits | cursor state | cursor window | pending count | (task ID | digest)*
//
// Version-1 files still restore. Their windows state ends in one more
// length-prefixed field, the frontier of a full-stream Merkle tree that no
// code ever checked (the cursor binds the window history); the decoder
// skips it. The window ledger and simulator payloads are the same in both
// versions. Every decoder walks its payload with the wire codecs' walker
// and fails as ErrCheckpointCorrupt.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"

	"uncheatgrid/internal/hashchain"
)

// ErrCheckpointCorrupt reports a checkpoint file that failed structural or
// checksum validation.
var ErrCheckpointCorrupt = errors.New("grid: checkpoint file corrupt")

// checkpointMagic opens every checkpoint file; the format version follows
// it.
const checkpointMagic = "UGCP"

// checkpointVersion is the format written; every version from 1 up
// restores.
const checkpointVersion = 2

// encodeCheckpointFile wraps payload in the checkpoint envelope.
func encodeCheckpointFile(payload []byte) []byte {
	out := append(make([]byte, 0, len(checkpointMagic)+1+prefixedLen(len(payload))+4), checkpointMagic...)
	out = appendBytes(append(out, checkpointVersion), payload)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// parseCheckpointFile validates the envelope and returns the format version
// and the payload, a view of data.
func parseCheckpointFile(data []byte) (version byte, payload []byte, err error) {
	if len(data) < len(checkpointMagic)+1+1+4 {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrCheckpointCorrupt, len(data))
	}
	version = data[len(checkpointMagic)]
	if string(data[:len(checkpointMagic)]) != checkpointMagic || version < 1 || version > checkpointVersion {
		return 0, nil, fmt.Errorf("%w: bad magic or version", ErrCheckpointCorrupt)
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	w := walker{buf: body[len(checkpointMagic)+1:]}
	payload = w.bytes("payload")
	if err := w.done(); err != nil {
		return 0, nil, corrupt("envelope", err)
	}
	return version, payload, nil
}

// corrupt reports a walker's failure on a checkpoint payload as
// ErrCheckpointCorrupt.
func corrupt(what string, err error) error {
	return fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, what, err)
}

// counter reads a uvarint that must fit an int64: a counter restored
// negative would count backwards.
func (w *walker) counter(what string) int64 {
	v := w.uvarint(what)
	if v > math.MaxInt64 {
		w.fail("%s %d overflows int64", what, v)
		return 0
	}
	return int64(v)
}

// flag reads a one-byte boolean, refusing any byte but 0 and 1.
func (w *walker) flag(what string) bool {
	b := w.byte(what)
	if b > 1 {
		w.fail("%s %d", what, b)
	}
	return b == 1
}

// writeCheckpointFile durably and atomically persists payload at path,
// creating the checkpoint directory on first use: the bytes go to a temp
// file that is fsynced before it is renamed over path, and the directory is
// fsynced after, so a crash at any point leaves path holding the previous
// checkpoint or this one, never a prefix of this one — and a returned nil
// means the new one survives a crash.
func writeCheckpointFile(path string, payload []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(encodeCheckpointFile(payload))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries renamed into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readCheckpointFile loads and validates the checkpoint at path.
func readCheckpointFile(path string) (version byte, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	return parseCheckpointFile(data)
}

// participantCheckpointPath names a participant's checkpoint file. IDs are
// expected to be filename-safe labels (the sim uses "honest-3" style); the
// path is rooted in the configured directory either way.
func participantCheckpointPath(dir, id string) string {
	return filepath.Join(dir, "participant-"+id+".ckpt")
}

// WriteCheckpoint persists the participant's durable state — counters and
// rolling-window commitment state — under the configured checkpoint
// directory. Without one it is a no-op: the caller still acknowledges the
// checkpoint barrier, it just has nothing to restore from. Call at quiesce
// (the stream drain barrier); in-flight tasks are deliberately not saved,
// the supervisor re-runs them after a restore.
func (p *Participant) WriteCheckpoint(seq uint64) error {
	if p.cfg.checkpointDir == "" {
		return nil
	}
	return writeCheckpointFile(participantCheckpointPath(p.cfg.checkpointDir, p.id), p.encodeCheckpointPayload(seq))
}

// RestoreCheckpoint loads the participant's durable state from the
// configured checkpoint directory. It reports the restored checkpoint
// sequence and whether a checkpoint existed; a missing file is a fresh
// start, not an error.
func (p *Participant) RestoreCheckpoint() (seq uint64, ok bool, err error) {
	if p.cfg.checkpointDir == "" {
		return 0, false, nil
	}
	version, payload, err := readCheckpointFile(participantCheckpointPath(p.cfg.checkpointDir, p.id))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	seq, err = p.decodeCheckpointPayload(version, payload)
	if err != nil {
		return 0, false, err
	}
	return seq, true, nil
}

func (p *Participant) encodeCheckpointPayload(seq uint64) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := binary.AppendUvarint(nil, seq)
	out = appendString(appendString(out, p.id), p.behavior)
	for _, c := range []int64{p.evals, int64(p.tasks), int64(p.accepted), int64(p.rejected)} {
		out = binary.AppendUvarint(out, uint64(c))
	}
	out = appendFlag(out, p.windows != nil)
	if p.windows == nil {
		return out
	}
	return p.windows.appendState(out)
}

func (p *Participant) decodeCheckpointPayload(version byte, payload []byte) (uint64, error) {
	w := walker{buf: payload}
	seq := w.uvarint("seq")
	id := w.string("id")
	if w.err == nil && id != p.id {
		return 0, fmt.Errorf("%w: checkpoint of participant %q restored into %q", ErrCheckpointCorrupt, id, p.id)
	}
	behavior := w.string("behavior")
	var counters [4]int64
	for i, name := range []string{"evals", "tasks", "accepted", "rejected"} {
		counters[i] = w.counter(name)
	}
	var windows *participantWindows
	if w.flag("windows flag") {
		windows = w.participantWindows(version)
	}
	if err := w.done(); err != nil {
		return 0, corrupt("participant", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.behavior = behavior
	p.evals = counters[0]
	p.tasks = int(counters[1])
	p.accepted = int(counters[2])
	p.rejected = int(counters[3])
	p.windows = windows
	return seq, nil
}

// appendState appends the rolling-window state: window geometry, commit
// count, cursor, and the digests of tasks settled but not yet covered by a
// window.
func (pw *participantWindows) appendState(dst []byte) []byte {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	dst = binary.AppendUvarint(dst, uint64(pw.w))
	dst = binary.AppendUvarint(dst, uint64(pw.m))
	dst = binary.AppendUvarint(dst, pw.commits)
	dst = appendCursor(dst, pw.cursor)
	dst = binary.AppendUvarint(dst, uint64(len(pw.ids)))
	for i, id := range pw.ids {
		dst = appendBytes(binary.AppendUvarint(dst, id), pw.digests[i])
	}
	return dst
}

// participantWindows reads what appendState wrote and, from a version-1
// file, skips the trailing frontier field. The pending digests are cloned:
// the state outlives the payload.
func (w *walker) participantWindows(version byte) *participantWindows {
	win := w.uvarint("windows w")
	if w.err == nil && (win < 1 || win > maxWindowCommitTasks) {
		w.fail("windows w %d", win)
	}
	m := w.uvarint("windows m")
	if w.err == nil && (m < 1 || m > win) {
		w.fail("windows m %d", m)
	}
	commits := w.uvarint("windows commits")
	cursor := w.cursor()
	n := w.count("pending tasks", win-1, 2)
	ids := make([]uint64, n)
	digests := make([][]byte, n)
	for i := range ids {
		ids[i] = w.uvarint("pending id")
		digests[i] = slices.Clone(w.bytes("pending digest"))
	}
	if version == 1 {
		w.bytes("stream frontier")
	}
	if w.err != nil {
		return nil
	}
	return &participantWindows{w: int(win), m: int(m), cursor: cursor, commits: commits, ids: ids, digests: digests}
}

// appendCursor appends a window cursor's state and window number.
func appendCursor(dst []byte, cu *hashchain.Cursor) []byte {
	snap := cu.Snapshot()
	return binary.AppendUvarint(appendBytes(dst, snap.State), snap.Window)
}

// cursor reads what appendCursor wrote. RestoreCursor copies the state.
func (w *walker) cursor() *hashchain.Cursor {
	snap := hashchain.CursorSnapshot{State: w.bytes("cursor state"), Window: w.uvarint("cursor window")}
	if w.err != nil {
		return nil
	}
	cu, err := windowChain().RestoreCursor(snap)
	if err != nil {
		w.fail("cursor: %v", err)
	}
	return cu
}

// appendState appends the supervisor-side window ledger; pending digests
// are sorted by task ID so equal ledgers serialize to equal bytes.
func (led *WindowLedger) appendState(dst []byte) []byte {
	led.mu.Lock()
	defer led.mu.Unlock()
	dst = appendCursor(dst, led.cursor)
	dst = binary.AppendUvarint(dst, led.settled)
	dst = binary.AppendUvarint(dst, led.violations)
	dst = appendString(dst, led.lastReason)
	ids := make([]uint64, 0, len(led.pend))
	for id := range led.pend {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendBytes(binary.AppendUvarint(dst, id), led.pend[id])
	}
	return dst
}

// Snapshot serializes the ledger — hash-chain cursor, settled/violation
// counters, and the pending digests of the open window — for
// RestoreWindowLedger, wrapped in the self-verifying checkpoint envelope
// (magic, version, CRC) so the bytes are durable-ready as written. Safe to
// call at any time (it locks the ledger), but a snapshot taken mid-window
// only round-trips verdict-identically when the participant side is
// restored to the same barrier; take it at a quiesced checkpoint boundary,
// as RunSim's kill drills do.
func (led *WindowLedger) Snapshot() []byte {
	return encodeCheckpointFile(led.appendState(nil))
}

// RestoreWindowLedger rebuilds a ledger from a Snapshot taken under the
// same spec, so library users — not just RunSim — can restart a streaming
// run with rolling-commitment continuity: the restored ledger expects
// exactly the next window the participant's restored committer will send.
// A corrupt or truncated snapshot surfaces as ErrCheckpointCorrupt — the
// envelope CRC covers every byte. The ledger keeps no reference to snap.
func RestoreWindowLedger(spec SchemeSpec, snap []byte) (*WindowLedger, error) {
	_, payload, err := parseCheckpointFile(snap)
	if err != nil {
		return nil, err
	}
	return decodeWindowLedger(spec, payload)
}

// decodeWindowLedger rebuilds a ledger for spec from appendState output,
// which both format versions share. The pending digests are cloned: the
// ledger outlives data.
func decodeWindowLedger(spec SchemeSpec, data []byte) (*WindowLedger, error) {
	led, err := NewWindowLedger(spec)
	if err != nil {
		return nil, err
	}
	w := walker{buf: data}
	led.cursor = w.cursor()
	led.settled = w.uvarint("settled")
	led.violations = w.uvarint("violations")
	led.lastReason = w.string("last reason")
	n := w.count("pending tasks", math.MaxInt, 2)
	for i := 0; i < n && w.err == nil; i++ {
		id := w.uvarint("pending id")
		led.pend[id] = slices.Clone(w.bytes("pending digest"))
	}
	if err := w.done(); err != nil {
		return nil, corrupt("ledger", err)
	}
	return led, nil
}
