package grid

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	payload := []byte("durable state")
	if err := writeCheckpointFile(path, payload); err != nil {
		t.Fatalf("writeCheckpointFile: %v", err)
	}
	got, err := readCheckpointFile(path)
	if err != nil {
		t.Fatalf("readCheckpointFile: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
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
		"wrong ver":  func(d []byte) []byte { c := append([]byte(nil), d...); c[4] = 0x02; return c },
		"bit flip":   func(d []byte) []byte { c := append([]byte(nil), d...); c[len(c)/2] ^= 0x01; return c },
		"appended":   func(d []byte) []byte { return append(append([]byte(nil), d...), 0x00) },
		"crc forged": func(d []byte) []byte { c := append([]byte(nil), d...); c[len(c)-1] ^= 0x01; return c },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			if _, err := parseCheckpointFile(mutate(clean)); !errors.Is(err, ErrCheckpointCorrupt) {
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

// FuzzCheckpointFile hammers the envelope parser and, when the envelope
// survives, the participant payload decoder — both consume attacker-visible
// bytes from disk after a crash, where torn writes make any prefix possible.
func FuzzCheckpointFile(f *testing.F) {
	f.Add(encodeCheckpointFile(nil))
	f.Add(encodeCheckpointFile([]byte("state")))
	p, err := NewParticipant("fuzz-seed", HonestFactory)
	if err == nil {
		if payload, perr := p.encodeCheckpointPayload(3); perr == nil {
			f.Add(encodeCheckpointFile(payload))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{'U', 'G', 'C', 'P', 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := parseCheckpointFile(data)
		if err != nil {
			return
		}
		again, err := parseCheckpointFile(encodeCheckpointFile(payload))
		if err != nil {
			t.Fatalf("re-parse of re-encoded envelope failed: %v", err)
		}
		if string(again) != string(payload) {
			t.Fatal("round trip changed the payload")
		}
		q, err := NewParticipant("fuzz-seed", HonestFactory)
		if err != nil {
			t.Fatalf("NewParticipant: %v", err)
		}
		_, _ = q.decodeCheckpointPayload(payload) // must not panic
	})
}

// FuzzDecodeParticipantWindows hammers the rolling-window state decoder
// in isolation: it consumes the checkpoint payload after the envelope
// CRC, where a version skew or an encoder bug can still present any byte
// sequence. Whatever decodes must re-encode to a stable fixed point.
func FuzzDecodeParticipantWindows(f *testing.F) {
	spec := SchemeSpec{Kind: SchemeCBS, M: 4, WindowTasks: 4, WindowSamples: 2}
	if pw, err := newParticipantWindows(spec); err == nil {
		var fresh bytes.Buffer
		if err := pw.encodeState(&fresh); err == nil {
			f.Add(fresh.Bytes())
		}
		sink := func(uint8, []byte) error { return nil }
		for i := uint64(0); i < 6; i++ {
			_ = pw.settle(i, []byte{byte(i), 0xab}, sink)
		}
		var settled bytes.Buffer
		if err := pw.encodeState(&settled); err == nil {
			f.Add(settled.Bytes())
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x02, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		pw, err := decodeParticipantWindows(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := pw.encodeState(&once); err != nil {
			t.Fatalf("re-encode of decoded windows failed: %v", err)
		}
		again, err := decodeParticipantWindows(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of re-encoded windows failed: %v", err)
		}
		var twice bytes.Buffer
		if err := again.encodeState(&twice); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("round trip is not a fixed point")
		}
	})
}
