package grid

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"uncheatgrid/internal/hashchain"
)

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	payload := []byte("durable state")
	if err := writeCheckpointFile(path, payload); err != nil {
		t.Fatalf("writeCheckpointFile: %v", err)
	}
	version, got, err := readCheckpointFile(path)
	if err != nil {
		t.Fatalf("readCheckpointFile: %v", err)
	}
	if version != checkpointVersion || string(got) != string(payload) {
		t.Fatalf("version %d, payload %q; want %d, %q", version, got, checkpointVersion, payload)
	}
	// The temp file was renamed away, not left behind.
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file survived the rename: %v", err)
	}
}

func TestCheckpointFileCorruptionDetected(t *testing.T) {
	clean := encodeCheckpointFile([]byte("state"))
	mutations := map[string]func([]byte) []byte{
		"empty":      func([]byte) []byte { return nil },
		"truncated":  func(d []byte) []byte { return d[:len(d)-3] },
		"bad magic":  func(d []byte) []byte { c := append([]byte(nil), d...); c[0] ^= 0xff; return c },
		"wrong ver":  func(d []byte) []byte { c := append([]byte(nil), d...); c[4] = 0x03; return c },
		"bit flip":   func(d []byte) []byte { c := append([]byte(nil), d...); c[len(c)/2] ^= 0x01; return c },
		"appended":   func(d []byte) []byte { return append(append([]byte(nil), d...), 0x00) },
		"crc forged": func(d []byte) []byte { c := append([]byte(nil), d...); c[len(c)-1] ^= 0x01; return c },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			if _, _, err := parseCheckpointFile(mutate(clean)); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("got %v, want ErrCheckpointCorrupt", err)
			}
		})
	}
}

func TestParticipantCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, err := NewParticipant("worker-1", HonestFactory, WithCheckpointDir(dir))
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	spec := windowSpec(4, 2)
	pw, err := p.windowsFor(spec)
	if err != nil {
		t.Fatalf("windowsFor: %v", err)
	}
	for id := uint64(0); id < 6; id++ {
		if err := pw.settle(id, streamDigest(id, spec.Kind, []byte{byte(id)}),
			func(uint8, []byte) error { return nil }); err != nil {
			t.Fatalf("settle: %v", err)
		}
	}
	if err := p.WriteCheckpoint(9); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	restored, err := NewParticipant("worker-1", HonestFactory, WithCheckpointDir(dir))
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	seq, ok, err := restored.RestoreCheckpoint()
	if err != nil || !ok || seq != 9 {
		t.Fatalf("RestoreCheckpoint = (%d, %v, %v), want (9, true, nil)", seq, ok, err)
	}
	rw, err := restored.windowsFor(spec)
	if err != nil {
		t.Fatalf("windowsFor after restore: %v", err)
	}
	rw.mu.Lock()
	commits, pending := rw.commits, len(rw.ids)
	rw.mu.Unlock()
	if commits != 1 || pending != 2 {
		t.Fatalf("restored windows: commits = %d, pending = %d; want 1, 2", commits, pending)
	}
}

// TestCheckpointTornWrites cuts a real participant checkpoint at every byte
// offset, as a crash mid-write can leave it. A torn temp file — the crash
// came before the rename — must leave the previous checkpoint restoring
// whole; a torn file at the checkpoint's own path — what an unsynced rename
// can leave behind — must be ErrCheckpointCorrupt. No cut restores anything
// else.
func TestCheckpointTornWrites(t *testing.T) {
	dir := t.TempDir()
	p, err := NewParticipant("worker-t", HonestFactory, WithCheckpointDir(dir))
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	spec := windowSpec(4, 2)
	pw, err := p.windowsFor(spec)
	if err != nil {
		t.Fatalf("windowsFor: %v", err)
	}
	settle := func(from, to uint64) {
		for id := from; id < to; id++ {
			if err := pw.settle(id, streamDigest(id, spec.Kind, []byte{byte(id)}),
				func(uint8, []byte) error { return nil }); err != nil {
				t.Fatalf("settle: %v", err)
			}
		}
	}
	path := participantCheckpointPath(dir, "worker-t")
	settle(0, 3)
	if err := p.WriteCheckpoint(1); err != nil {
		t.Fatalf("WriteCheckpoint(1): %v", err)
	}
	previous, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read the previous checkpoint: %v", err)
	}
	settle(3, 6)
	if err := p.WriteCheckpoint(2); err != nil {
		t.Fatalf("WriteCheckpoint(2): %v", err)
	}
	next, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read the new checkpoint: %v", err)
	}
	restore := func() (uint64, error) {
		q, err := NewParticipant("worker-t", HonestFactory, WithCheckpointDir(dir))
		if err != nil {
			t.Fatalf("NewParticipant: %v", err)
		}
		seq, ok, err := q.RestoreCheckpoint()
		if err == nil && !ok {
			t.Fatal("RestoreCheckpoint found no checkpoint")
		}
		return seq, err
	}
	for cut := 0; cut < len(next); cut++ {
		if err := os.WriteFile(path, previous, 0o644); err != nil {
			t.Fatalf("restore the previous file: %v", err)
		}
		if err := os.WriteFile(path+".tmp", next[:cut], 0o644); err != nil {
			t.Fatalf("write a torn temp file: %v", err)
		}
		if seq, err := restore(); err != nil || seq != 1 {
			t.Fatalf("temp file torn at %d of %d bytes: restored (%d, %v), want the previous checkpoint", cut, len(next), seq, err)
		}
		if err := os.WriteFile(path, next[:cut], 0o644); err != nil {
			t.Fatalf("write a torn checkpoint: %v", err)
		}
		if seq, err := restore(); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("checkpoint torn at %d of %d bytes: restored (%d, %v), want ErrCheckpointCorrupt", cut, len(next), seq, err)
		}
	}
	if err := os.WriteFile(path, next, 0o644); err != nil {
		t.Fatalf("rewrite the new checkpoint: %v", err)
	}
	if seq, err := restore(); err != nil || seq != 2 {
		t.Fatalf("whole checkpoint restored (%d, %v), want seq 2", seq, err)
	}
}

func TestParticipantCheckpointMissingIsFreshStart(t *testing.T) {
	p, err := NewParticipant("worker-2", HonestFactory, WithCheckpointDir(t.TempDir()))
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	if seq, ok, err := p.RestoreCheckpoint(); seq != 0 || ok || err != nil {
		t.Fatalf("RestoreCheckpoint = (%d, %v, %v), want fresh start", seq, ok, err)
	}
}

func TestParticipantCheckpointIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	p, err := NewParticipant("worker-a", HonestFactory, WithCheckpointDir(dir))
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	if err := p.WriteCheckpoint(1); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	// Rename a's file onto b's slot: the payload-embedded identity catches
	// the swap even though the envelope checksum is intact.
	if err := os.Rename(participantCheckpointPath(dir, "worker-a"),
		participantCheckpointPath(dir, "worker-b")); err != nil {
		t.Fatalf("rename: %v", err)
	}
	q, err := NewParticipant("worker-b", HonestFactory, WithCheckpointDir(dir))
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	if _, _, err := q.RestoreCheckpoint(); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("got %v, want ErrCheckpointCorrupt", err)
	}
}

// The checkpoint decoders read bytes back from disk after a crash, where a
// torn write, a version skew or an encoder bug can present any byte
// sequence. Every fuzz target below is a differential: the walker decoder
// against the bytes.Reader decoder it replaced (checkpoint_reference_test.go
// lists the deliberate differences) — same accept/reject, same decoded
// value, ErrCheckpointCorrupt on both sides — and, for whatever decodes, a
// round trip through the version-2 encoder that must change nothing.

// checkpointDiff holds one decode to its reference and reports whether both
// accepted. overflows, when non-nil, names the reference values the walker
// may refuse: those the reference cast to a negative counter.
func checkpointDiff[T any](t *testing.T, got T, err error, want T, refErr error, overflows func(T) bool) bool {
	t.Helper()
	if err != nil && refErr == nil && overflows != nil && overflows(want) {
		return false
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decoder returned %v, reference %v", err, refErr)
	}
	if err != nil {
		if !errors.Is(err, ErrCheckpointCorrupt) || !errors.Is(refErr, ErrCheckpointCorrupt) {
			t.Fatalf("decoder failed with %v, reference with %v: want ErrCheckpointCorrupt on both sides", err, refErr)
		}
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoder and reference disagree:\n%+v\n%+v", got, want)
	}
	return true
}

// windowsView is the comparable content of a participant's window state.
type windowsView struct {
	W, M    int
	Commits uint64
	Cursor  hashchain.CursorSnapshot
	IDs     []uint64
	Digests [][]byte
}

func viewWindows(pw *participantWindows) *windowsView {
	if pw == nil {
		return nil
	}
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return &windowsView{pw.w, pw.m, pw.commits, pw.cursor.Snapshot(), pw.ids, pw.digests}
}

// participantView is what a participant checkpoint restores.
type participantView struct {
	Seq                       uint64
	Behavior                  string
	Evals                     int64
	Tasks, Accepted, Rejected int
	Windows                   *windowsView
}

func viewParticipant(p *Participant, seq uint64) participantView {
	p.mu.Lock()
	v := participantView{seq, p.behavior, p.evals, p.tasks, p.accepted, p.rejected, nil}
	p.mu.Unlock()
	v.Windows = viewWindows(p.windows)
	return v
}

func participantOverflows(v participantView) bool {
	return v.Evals < 0 || v.Tasks < 0 || v.Accepted < 0 || v.Rejected < 0
}

// ledgerView is the comparable content of a window ledger.
type ledgerView struct {
	Cursor              hashchain.CursorSnapshot
	Settled, Violations uint64
	LastReason          string
	Pend                map[uint64][]byte
}

func viewLedger(led *WindowLedger) *ledgerView {
	if led == nil {
		return nil
	}
	led.mu.Lock()
	defer led.mu.Unlock()
	return &ledgerView{led.cursor.Snapshot(), led.settled, led.violations, led.lastReason, led.pend}
}

// simView is the comparable content of the coordinator state.
type simView struct {
	Seq                        uint64
	NextTask                   int
	SupEvals, SupSent, SupRecv int64
	PartSent, PartRecv         []int64
	Ledgers                    []*ledgerView
	Settled                    map[outcomeKey]settledTask
}

func viewSimState(st *simState) *simView {
	if st == nil {
		return nil
	}
	v := &simView{st.seq, st.nextTask, st.supEvals, st.supSent, st.supRecv, st.partSent, st.partRecv, nil, st.settled}
	for _, led := range st.ledgers {
		v.Ledgers = append(v.Ledgers, viewLedger(led))
	}
	return v
}

func simOverflows(v *simView) bool {
	neg := v.NextTask < 0 || v.SupEvals < 0 || v.SupSent < 0 || v.SupRecv < 0
	for i := range v.PartSent {
		neg = neg || v.PartSent[i] < 0 || v.PartRecv[i] < 0
	}
	for _, rec := range v.Settled {
		neg = neg || rec.sent < 0 || rec.recv < 0
	}
	return neg
}

// walkParticipantWindows decodes a window state that fills data.
func walkParticipantWindows(version byte, data []byte) (*participantWindows, error) {
	w := walker{buf: data}
	pw := w.participantWindows(version)
	if err := w.done(); err != nil {
		return nil, corrupt("windows", err)
	}
	return pw, nil
}

// refWalkParticipantWindows is walkParticipantWindows on the reference.
func refWalkParticipantWindows(version byte, data []byte) (*participantWindows, error) {
	r := bytes.NewReader(data)
	pw, err := refDecodeParticipantWindows(r, version)
	if err == nil && r.Len() != 0 {
		return nil, fmt.Errorf("%w: windows: %d trailing bytes", ErrCheckpointCorrupt, r.Len())
	}
	return pw, err
}

// settledWindows returns window state after one committed window of four
// and two pending tasks.
func settledWindows(t testing.TB) *participantWindows {
	pw, err := newParticipantWindows(windowSpec(4, 2))
	if err != nil {
		t.Fatalf("newParticipantWindows: %v", err)
	}
	for id := uint64(0); id < 6; id++ {
		if err := pw.settle(id, []byte{byte(id), 0xab}, func(uint8, []byte) error { return nil }); err != nil {
			t.Fatalf("settle: %v", err)
		}
	}
	return pw
}

// FuzzCheckpointFile hammers the envelope parser and the participant
// payload decoder behind it. Fuzzed bytes rarely carry a valid CRC, so
// input the envelope refuses is also decoded as a bare payload of either
// version.
func FuzzCheckpointFile(f *testing.F) {
	f.Add(encodeCheckpointFile(nil))
	f.Add(encodeCheckpointFile([]byte("state")))
	p, err := NewParticipant("fuzz-seed", HonestFactory)
	if err != nil {
		f.Fatalf("NewParticipant: %v", err)
	}
	f.Add(encodeCheckpointFile(p.encodeCheckpointPayload(3)))
	f.Add([]byte{})
	f.Add([]byte{'U', 'G', 'C', 'P', 0x01})
	p.windows = settledWindows(f)
	f.Add(encodeCheckpointFile(p.encodeCheckpointPayload(4)))
	if v1, err := os.ReadFile(participantV1Fixture); err == nil {
		f.Add(v1)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		version, payload, err := parseCheckpointFile(data)
		refPayload, refErr := refParseCheckpointFile(data)
		versions := []byte{1, checkpointVersion}
		if checkpointDiff(t, payload, err, refPayload, refErr, nil) {
			if data[len(checkpointMagic)] != version {
				t.Fatalf("parsed version %d from a version-%d file", version, data[len(checkpointMagic)])
			}
			v, again, err := parseCheckpointFile(encodeCheckpointFile(payload))
			if err != nil || v != checkpointVersion || !bytes.Equal(again, payload) {
				t.Fatalf("re-parse of the re-encoded envelope: version %d, payload %x, %v", v, again, err)
			}
			versions = []byte{version}
		} else {
			payload = data
		}
		for _, version := range versions {
			fuzzParticipantPayload(t, version, payload)
		}
	})
}

func fuzzParticipantPayload(t *testing.T, version byte, payload []byte) {
	fresh := func() *Participant {
		p, err := NewParticipant("fuzz-seed", HonestFactory)
		if err != nil {
			t.Fatalf("NewParticipant: %v", err)
		}
		return p
	}
	p, ref := fresh(), fresh()
	seq, err := p.decodeCheckpointPayload(version, payload)
	refSeq, refErr := refDecodeCheckpointPayload(ref, version, payload)
	got := viewParticipant(p, seq)
	if !checkpointDiff(t, got, err, viewParticipant(ref, refSeq), refErr, participantOverflows) {
		return
	}
	again := fresh()
	seq, err = again.decodeCheckpointPayload(checkpointVersion, p.encodeCheckpointPayload(seq))
	if err != nil {
		t.Fatalf("re-decode of the re-encoded payload failed: %v", err)
	}
	if !reflect.DeepEqual(viewParticipant(again, seq), got) {
		t.Fatalf("round trip changed the participant: %+v != %+v", viewParticipant(again, seq), got)
	}
}

// FuzzDecodeParticipantWindows hammers the window state decoder in
// isolation, as both format versions.
func FuzzDecodeParticipantWindows(f *testing.F) {
	pw, err := newParticipantWindows(windowSpec(4, 2))
	if err != nil {
		f.Fatalf("newParticipantWindows: %v", err)
	}
	f.Add(pw.appendState(nil))
	f.Add(settledWindows(f).appendState(nil))
	// A whole window left pending, which settle never leaves: refused.
	full := settledWindows(f)
	full.ids, full.digests = []uint64{6, 7, 8, 9}, [][]byte{{6}, {7}, {8}, {9}}
	f.Add(full.appendState(nil))
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x02, 0x00})
	if golden, err := hex.DecodeString(participantWindowsGolden); err == nil {
		f.Add(golden)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, version := range []byte{1, checkpointVersion} {
			pw, err := walkParticipantWindows(version, data)
			ref, refErr := refWalkParticipantWindows(version, data)
			if !checkpointDiff(t, viewWindows(pw), err, viewWindows(ref), refErr, nil) {
				continue
			}
			again, err := walkParticipantWindows(checkpointVersion, pw.appendState(nil))
			if err != nil {
				t.Fatalf("re-decode of re-encoded windows failed: %v", err)
			}
			if !reflect.DeepEqual(viewWindows(again), viewWindows(pw)) {
				t.Fatal("round trip changed the window state")
			}
		}
	})
}

// FuzzDecodeWindowLedger hammers the supervisor's ledger decoder.
func FuzzDecodeWindowLedger(f *testing.F) {
	spec := windowSpec(4, 2)
	led, err := NewWindowLedger(spec)
	if err != nil {
		f.Fatalf("NewWindowLedger: %v", err)
	}
	f.Add(led.appendState(nil))
	f.Add(handBuiltLedger(f).appendState(nil))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		led, err := decodeWindowLedger(spec, data)
		ref, refErr := refDecodeWindowLedger(spec, data)
		if !checkpointDiff(t, viewLedger(led), err, viewLedger(ref), refErr, nil) {
			return
		}
		again, err := decodeWindowLedger(spec, led.appendState(nil))
		if err != nil {
			t.Fatalf("re-decode of the re-encoded ledger failed: %v", err)
		}
		if !reflect.DeepEqual(viewLedger(again), viewLedger(led)) {
			t.Fatal("round trip changed the ledger")
		}
	})
}

// fuzzSimConfigs are the two shapes of coordinator state: with window
// ledgers and without.
var fuzzSimConfigs = []SimConfig{
	{Honest: 2, Tasks: 4, Spec: windowSpec(4, 2)},
	{Honest: 2, Tasks: 4, Spec: SchemeSpec{Kind: SchemeCBS, M: 8}},
}

// FuzzDecodeSimState hammers the coordinator's state decoder under both
// configurations.
func FuzzDecodeSimState(f *testing.F) {
	st := handBuiltSimState(f)
	withLedgers, err := st.encode()
	if err != nil {
		f.Fatalf("encode: %v", err)
	}
	f.Add(withLedgers)
	st.ledgers = nil
	withoutLedgers, err := st.encode()
	if err != nil {
		f.Fatalf("encode: %v", err)
	}
	f.Add(withoutLedgers)
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, cfg := range fuzzSimConfigs {
			st, err := decodeSimState(cfg, payload)
			ref, refErr := refDecodeSimState(cfg, payload)
			if !checkpointDiff(t, viewSimState(st), err, viewSimState(ref), refErr, simOverflows) {
				continue
			}
			data, err := st.encode()
			if err != nil {
				t.Fatalf("re-encode of decoded state failed: %v", err)
			}
			again, err := decodeSimState(cfg, data)
			if err != nil {
				t.Fatalf("re-decode of the re-encoded state failed: %v", err)
			}
			if !reflect.DeepEqual(viewSimState(again), viewSimState(st)) {
				t.Fatal("round trip changed the coordinator state")
			}
		}
	})
}

// handBuiltLedger is a ledger with a settled window, a counted violation
// and pending digests out of task order.
func handBuiltLedger(t testing.TB) *WindowLedger {
	spec := windowSpec(4, 2)
	pw, err := newParticipantWindows(spec)
	if err != nil {
		t.Fatalf("newParticipantWindows: %v", err)
	}
	led, err := NewWindowLedger(spec)
	if err != nil {
		t.Fatalf("NewWindowLedger: %v", err)
	}
	for id := uint64(0); id < 6; id++ {
		digest := streamDigest(id, spec.Kind, []byte{byte(id)})
		led.record(id, digest)
		if err := pw.settle(id, digest, func(_ uint8, payload []byte) error { return led.onCommit(payload) }); err != nil {
			t.Fatalf("settle(%d): %v", id, err)
		}
	}
	led.violations = 3
	led.lastReason = "window 7 replayed"
	led.record(1<<40, []byte{0xaa, 0xbb})
	return led
}

// handBuiltSimState is a two-participant coordinator state with ledgers,
// two settled tasks and counters past 32 bits.
func handBuiltSimState(t testing.TB) *simState {
	return &simState{
		seq: 5, nextTask: 2, supEvals: 40, supSent: 1 << 33, supRecv: 2000,
		partSent: []int64{10, 20}, partRecv: []int64{30, 1 << 40},
		ledgers: []*WindowLedger{handBuiltLedger(t), handBuiltLedger(t)},
		settled: map[outcomeKey]settledTask{
			{task: 0}: {Verdict{Accepted: true}, []Report{{X: 7, S: "hit"}}, 11, 12},
			{task: 1}: {Verdict{Reason: "bad"}, nil, 13, 1 << 35},
		},
	}
}

// TestCheckpointStateGoldenBytes pins the supervisor-side payloads, which
// the format change left alone, to the bytes the bytes.Buffer encoders
// wrote before the append encoders replaced them.
func TestCheckpointStateGoldenBytes(t *testing.T) {
	const ledger = "206c1590201214685d2f2f462ebda9d9280a15d23c9acac41dc7ae432cff90d2b70101031177696e646f772037207265706c6179656403042042354c67d99d2848f65408a76266ab029efdda0533e23c18c8147c4999b34bc1052009f09ca7274808f1e934b3da4b92b59240f2d33ad92cc653f5c6e9af1425953080808080802002aabb"
	if got := hex.EncodeToString(handBuiltLedger(t).appendState(nil)); got != ledger {
		t.Errorf("ledger state encodes as %s, recorded %s", got, ledger)
	}
	st := handBuiltSimState(t)
	withLedgers, err := st.encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	const sim = "0502288080808020d00f020a1e018401" + ledger + "14808080808020018401" + ledger + "020100060107036869740b0c05000362616401000d808080808001"
	if got := hex.EncodeToString(withLedgers); got != sim {
		t.Errorf("coordinator state encodes as %s, recorded %s", got, sim)
	}
	st.ledgers = nil
	withoutLedgers, err := st.encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	const simNoLedgers = "0502288080808020d00f020a1e001480808080802000020100060107036869740b0c05000362616401000d808080808001"
	if got := hex.EncodeToString(withoutLedgers); got != simNoLedgers {
		t.Errorf("coordinator state without ledgers encodes as %s, recorded %s", got, simNoLedgers)
	}
}

// TestRestoredLedgerOwnsItsBytes overwrites a snapshot once the ledger is
// restored from it: the walker hands out views of the payload, so a
// restored ledger that kept one would read 0xff where its pending digests
// were, and refuse the next window.
func TestRestoredLedgerOwnsItsBytes(t *testing.T) {
	spec := windowSpec(4, 2)
	pw, led := windowPair(t, spec)
	for id := uint64(0); id < 6; id++ {
		settleTask(t, pw, led, id, streamDigest(id, spec.Kind, []byte{byte(id)}))
	}
	led.violations, led.lastReason = 1, "window 0 replayed"
	snap := led.Snapshot()
	restored, err := RestoreWindowLedger(spec, snap)
	if err != nil {
		t.Fatalf("RestoreWindowLedger: %v", err)
	}
	for i := range snap {
		snap[i] = 0xff
	}
	if got, want := viewLedger(restored), viewLedger(led); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored ledger changed with its snapshot:\n%+v\n%+v", got, want)
	}
	for id := uint64(6); id < 12; id++ {
		digest := streamDigest(id, spec.Kind, []byte{byte(id)})
		led.record(id, digest)
		restored.record(id, digest)
		err := pw.settle(id, digest, func(_ uint8, payload []byte) error {
			return errors.Join(led.onCommit(payload), restored.onCommit(payload))
		})
		if err != nil {
			t.Fatalf("settle(%d): %v", id, err)
		}
	}
	if got, want := restored.Stats(), led.Stats(); got != want || want.Settled != 3 {
		t.Fatalf("restored ledger settled %+v, its unrestored twin %+v", got, want)
	}
}

// TestRestoredWindowsOwnTheirBytes does the same for a participant's window
// state: decoded, then its bytes overwritten, it must commit the next
// windows exactly as the state it was written from.
func TestRestoredWindowsOwnTheirBytes(t *testing.T) {
	spec := windowSpec(4, 2)
	pw, err := newParticipantWindows(spec)
	if err != nil {
		t.Fatalf("newParticipantWindows: %v", err)
	}
	commits := func(pw *participantWindows, from, to uint64) [][]byte {
		var out [][]byte
		for id := from; id < to; id++ {
			err := pw.settle(id, streamDigest(id, spec.Kind, []byte{byte(id)}), func(_ uint8, payload []byte) error {
				out = append(out, payload)
				return nil
			})
			if err != nil {
				t.Fatalf("settle(%d): %v", id, err)
			}
		}
		return out
	}
	commits(pw, 0, 6)
	state := pw.appendState(nil)
	restored, err := walkParticipantWindows(checkpointVersion, state)
	if err != nil {
		t.Fatalf("walkParticipantWindows: %v", err)
	}
	for i := range state {
		state[i] = 0xff
	}
	if got, want := viewWindows(restored), viewWindows(pw); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored windows changed with their bytes:\n%+v\n%+v", got, want)
	}
	if got, want := commits(restored, 6, 14), commits(pw, 6, 14); len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored windows committed %x, the originals %x", got, want)
	}
}

// TestCheckpointCountersRejectOverflow writes CRC-valid checkpoints whose
// counters do not fit an int64. Cast unchecked, a next task of 2^63 became
// MinInt64 and passed the run-length check, and participant counters came
// back negative; each must be ErrCheckpointCorrupt.
func TestCheckpointCountersRejectOverflow(t *testing.T) {
	uv := binary.AppendUvarint
	cfg := SimConfig{Honest: 1, Tasks: 4, Spec: SchemeSpec{Kind: SchemeCBS, M: 8}}
	supervisor := func(next, evals uint64) []byte {
		// seq | next task | evals | sent | recv | 1 participant: sent | recv | no ledger
		return append(uv(uv(uv(nil, 1), next), evals), 0, 0, 1, 0, 0, 0)
	}
	for name, payload := range map[string][]byte{
		"next task 2^63": supervisor(1<<63, 0),
		"evals 2^63":     supervisor(0, 1<<63),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeCheckpointFile(supervisorCheckpointPath(dir), payload); err != nil {
				t.Fatalf("writeCheckpointFile: %v", err)
			}
			cfg.CheckpointDir = dir
			if st, err := loadSimState(cfg); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("loadSimState = (%+v, %v), want ErrCheckpointCorrupt", viewSimState(st), err)
			}
		})
	}
	participant := func(evals, tasks uint64) []byte {
		out := appendString(appendString(uv(nil, 1), "worker-o"), "honest")
		// accepted | rejected | no windows
		return append(uv(uv(out, evals), tasks), 0, 0, 0)
	}
	for name, payload := range map[string][]byte{
		"evals 2^63":   participant(1<<63, 0),
		"tasks 2^64-1": participant(0, math.MaxUint64),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeCheckpointFile(participantCheckpointPath(dir, "worker-o"), payload); err != nil {
				t.Fatalf("writeCheckpointFile: %v", err)
			}
			p, err := NewParticipant("worker-o", HonestFactory, WithCheckpointDir(dir))
			if err != nil {
				t.Fatalf("NewParticipant: %v", err)
			}
			if _, _, err := p.RestoreCheckpoint(); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("RestoreCheckpoint: %v, restored %+v; want ErrCheckpointCorrupt", err, viewParticipant(p, 0))
			}
		})
	}
}
