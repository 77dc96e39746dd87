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

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/merkle"
)

// ErrCheckpointCorrupt reports a checkpoint file that failed structural or
// checksum validation.
var ErrCheckpointCorrupt = errors.New("grid: checkpoint file corrupt")

// checkpointMagic opens every checkpoint file; the trailing byte is the
// format version.
var checkpointMagic = []byte{'U', 'G', 'C', 'P', 0x01}

// encodeCheckpointFile wraps payload in the checkpoint envelope.
func encodeCheckpointFile(payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(checkpointMagic)
	putUvarint(&buf, uint64(len(payload)))
	buf.Write(payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes()
}

// parseCheckpointFile validates the envelope and returns the payload.
func parseCheckpointFile(data []byte) ([]byte, error) {
	if len(data) < len(checkpointMagic)+1+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCheckpointCorrupt, len(data))
	}
	if !bytes.Equal(data[:len(checkpointMagic)], checkpointMagic) {
		return nil, fmt.Errorf("%w: bad magic or version", ErrCheckpointCorrupt)
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	r := bytes.NewReader(body[len(checkpointMagic):])
	n, err := binary.ReadUvarint(r)
	if err != nil || n != uint64(r.Len()) {
		return nil, fmt.Errorf("%w: payload length", ErrCheckpointCorrupt)
	}
	payload := make([]byte, n)
	copy(payload, body[len(body)-int(n):])
	return payload, nil
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
func readCheckpointFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
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
	payload, err := p.encodeCheckpointPayload(seq)
	if err != nil {
		return err
	}
	return writeCheckpointFile(participantCheckpointPath(p.cfg.checkpointDir, p.id), payload)
}

// RestoreCheckpoint loads the participant's durable state from the
// configured checkpoint directory. It reports the restored checkpoint
// sequence and whether a checkpoint existed; a missing file is a fresh
// start, not an error.
func (p *Participant) RestoreCheckpoint() (seq uint64, ok bool, err error) {
	if p.cfg.checkpointDir == "" {
		return 0, false, nil
	}
	payload, err := readCheckpointFile(participantCheckpointPath(p.cfg.checkpointDir, p.id))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	seq, err = p.decodeCheckpointPayload(payload)
	if err != nil {
		return 0, false, err
	}
	return seq, true, nil
}

func (p *Participant) encodeCheckpointPayload(seq uint64) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var buf bytes.Buffer
	putUvarint(&buf, seq)
	putString(&buf, p.id)
	putString(&buf, p.behavior)
	putUvarint(&buf, uint64(p.evals))
	putUvarint(&buf, uint64(p.tasks))
	putUvarint(&buf, uint64(p.accepted))
	putUvarint(&buf, uint64(p.rejected))
	if p.windows == nil {
		buf.WriteByte(0)
		return buf.Bytes(), nil
	}
	buf.WriteByte(1)
	if err := p.windows.encodeState(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (p *Participant) decodeCheckpointPayload(payload []byte) (uint64, error) {
	bad := func(field string, err error) error {
		return fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, field, err)
	}
	r := bytes.NewReader(payload)
	seq, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, bad("seq", err)
	}
	id, err := getString(r)
	if err != nil {
		return 0, bad("id", err)
	}
	if id != p.id {
		return 0, fmt.Errorf("%w: checkpoint of participant %q restored into %q", ErrCheckpointCorrupt, id, p.id)
	}
	behavior, err := getString(r)
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
		if windows, err = decodeParticipantWindows(r); err != nil {
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

// encodeState serializes the rolling-window state: window geometry, cursor,
// commit count, the digests of tasks settled but not yet covered by a
// window, and the full-stream builder's frontier.
func (pw *participantWindows) encodeState(buf *bytes.Buffer) error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	putUvarint(buf, uint64(pw.w))
	putUvarint(buf, uint64(pw.m))
	putUvarint(buf, pw.commits)
	snap := pw.cursor.Snapshot()
	putBytes(buf, snap.State)
	putUvarint(buf, snap.Window)
	putUvarint(buf, uint64(len(pw.ids)))
	for i, id := range pw.ids {
		putUvarint(buf, id)
		putBytes(buf, pw.digests[i])
	}
	streamSnap, err := pw.stream.Snapshot()
	if err != nil {
		return err
	}
	streamBytes, err := streamSnap.MarshalBinary()
	if err != nil {
		return err
	}
	putBytes(buf, streamBytes)
	return nil
}

// decodeParticipantWindows reverses encodeState.
func decodeParticipantWindows(r *bytes.Reader) (*participantWindows, error) {
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
	cursorState, err := getBytes(r)
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
		if digests[i], err = getBytes(r); err != nil {
			return nil, bad("pending digest", err)
		}
	}
	streamBytes, err := getBytes(r)
	if err != nil {
		return nil, bad("stream snapshot", err)
	}
	var streamSnap merkle.StreamSnapshot
	if err := streamSnap.UnmarshalBinary(streamBytes); err != nil {
		return nil, bad("stream snapshot", err)
	}
	stream, err := merkle.RestoreStreamBuilder(&streamSnap)
	if err != nil {
		return nil, bad("stream builder", err)
	}
	return &participantWindows{
		w:       int(w),
		m:       int(m),
		cursor:  cursor,
		commits: commits,
		ids:     ids,
		digests: digests,
		stream:  stream,
	}, nil
}

// encodeState serializes the supervisor-side window ledger; pending digests
// are sorted by task ID so equal ledgers serialize to equal bytes.
func (led *WindowLedger) encodeState() []byte {
	led.mu.Lock()
	defer led.mu.Unlock()
	var buf bytes.Buffer
	snap := led.cursor.Snapshot()
	putBytes(&buf, snap.State)
	putUvarint(&buf, snap.Window)
	putUvarint(&buf, led.settled)
	putUvarint(&buf, led.violations)
	putString(&buf, led.lastReason)
	ids := make([]uint64, 0, len(led.pend))
	for id := range led.pend {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	putUvarint(&buf, uint64(len(ids)))
	for _, id := range ids {
		putUvarint(&buf, id)
		putBytes(&buf, led.pend[id])
	}
	return buf.Bytes()
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
	return encodeCheckpointFile(led.encodeState())
}

// RestoreWindowLedger rebuilds a ledger from a Snapshot taken under the
// same spec, so library users — not just RunSim — can restart a streaming
// run with rolling-commitment continuity: the restored ledger expects
// exactly the next window the participant's restored committer will send.
// A corrupt or truncated snapshot surfaces as ErrCheckpointCorrupt — the
// envelope CRC covers every byte.
func RestoreWindowLedger(spec SchemeSpec, snap []byte) (*WindowLedger, error) {
	payload, err := parseCheckpointFile(snap)
	if err != nil {
		return nil, err
	}
	return restoreWindowLedger(spec, payload)
}

// restoreWindowLedger rebuilds a ledger for spec from encodeState output.
func restoreWindowLedger(spec SchemeSpec, data []byte) (*WindowLedger, error) {
	bad := func(field string, err error) error {
		return fmt.Errorf("%w: ledger %s: %v", ErrCheckpointCorrupt, field, err)
	}
	led, err := NewWindowLedger(spec)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(data)
	cursorState, err := getBytes(r)
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
	if led.lastReason, err = getString(r); err != nil {
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
		digest, err := getBytes(r)
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

// The checkpoint codecs run once per segment, not once per task, and still
// write through a bytes.Buffer and read through a bytes.Reader; the wire
// codecs (wire.go) do neither.

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
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

func getString(r *bytes.Reader) (string, error) {
	b, err := getBytes(r)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
