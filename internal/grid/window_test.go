package grid

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"uncheatgrid/internal/merkle"
)

func windowSpec(w, m int) SchemeSpec {
	return SchemeSpec{Kind: SchemeCBS, M: 8, ChainIters: 1, WindowTasks: w, WindowSamples: m}
}

// windowPair builds both protocol sides of one link, sharing a spec.
func windowPair(t *testing.T, spec SchemeSpec) (*participantWindows, *WindowLedger) {
	t.Helper()
	pw, err := newParticipantWindows(spec)
	if err != nil {
		t.Fatalf("newParticipantWindows: %v", err)
	}
	led, err := NewWindowLedger(spec)
	if err != nil {
		t.Fatalf("NewWindowLedger: %v", err)
	}
	return pw, led
}

// settleTask runs one task through both sides: the ledger banks the digest at
// decision time, then the participant settles it, forwarding any emitted
// commit into the ledger.
func settleTask(t *testing.T, pw *participantWindows, led *WindowLedger, id uint64, digest []byte) {
	t.Helper()
	led.record(id, digest)
	err := pw.settle(id, digest, func(typ uint8, payload []byte) error {
		if typ != msgWindowCommit {
			t.Fatalf("settle emitted type %d, want msgWindowCommit", typ)
		}
		return led.onCommit(payload)
	})
	if err != nil {
		t.Fatalf("settle(%d): %v", id, err)
	}
}

func TestWindowCommitRoundTrip(t *testing.T) {
	spec := windowSpec(4, 2)
	pw, led := windowPair(t, spec)
	for id := uint64(0); id < 10; id++ {
		settleTask(t, pw, led, id, streamDigest(id, spec.Kind, []byte{byte(id)}))
	}
	stats := led.Stats()
	if stats.Settled != 2 || stats.Violations != 0 {
		t.Fatalf("Stats = %+v, want 2 settled, 0 violations", stats)
	}
	if stats.Pending != 2 {
		t.Fatalf("Pending = %d, want 2 (tasks 8, 9 uncovered)", stats.Pending)
	}
}

func TestWindowCommitDetectsDivergedDigest(t *testing.T) {
	spec := windowSpec(3, 3)
	pw, led := windowPair(t, spec)
	// Task 1's committed digest disagrees with what the supervisor decided —
	// the participant rewriting history after the fact.
	for id := uint64(0); id < 3; id++ {
		digest := streamDigest(id, spec.Kind, []byte{byte(id)})
		led.record(id, digest)
		if id == 1 {
			digest = streamDigest(id, spec.Kind, []byte("forged"))
		}
		if err := pw.settle(id, digest, func(_ uint8, payload []byte) error {
			return led.onCommit(payload)
		}); err != nil {
			t.Fatalf("settle(%d): %v", id, err)
		}
	}
	stats := led.Stats()
	if stats.Violations != 1 || stats.Settled != 0 {
		t.Fatalf("Stats = %+v, want the forged window flagged", stats)
	}
	if !strings.Contains(stats.LastViolation, "disagrees") {
		t.Fatalf("LastViolation = %q", stats.LastViolation)
	}
	if stats.Pending != 0 {
		t.Fatalf("Pending = %d: a violating window must still evict its tasks", stats.Pending)
	}
	// Cursors stayed in lockstep: the next window settles cleanly.
	for id := uint64(3); id < 6; id++ {
		settleTask(t, pw, led, id, streamDigest(id, spec.Kind, []byte{byte(id)}))
	}
	if stats := led.Stats(); stats.Settled != 1 || stats.Violations != 1 {
		t.Fatalf("after recovery Stats = %+v, want 1 settled, 1 violation", stats)
	}
}

func TestWindowCommitDetectsReplayedWindow(t *testing.T) {
	spec := windowSpec(2, 1)
	pw, led := windowPair(t, spec)
	var lastCommit []byte
	for id := uint64(0); id < 2; id++ {
		led.record(id, streamDigest(id, spec.Kind, []byte{byte(id)}))
		if err := pw.settle(id, streamDigest(id, spec.Kind, []byte{byte(id)}), func(_ uint8, payload []byte) error {
			lastCommit = payload
			return led.onCommit(payload)
		}); err != nil {
			t.Fatalf("settle(%d): %v", id, err)
		}
	}
	if err := led.onCommit(lastCommit); err != nil {
		t.Fatalf("replayed onCommit: %v", err)
	}
	stats := led.Stats()
	if stats.Violations != 1 {
		t.Fatalf("Stats = %+v, want the replay counted as a violation", stats)
	}
	if !strings.Contains(stats.LastViolation, "out of order") {
		t.Fatalf("LastViolation = %q", stats.LastViolation)
	}
}

func TestWindowCommitRejectsUndecodablePayload(t *testing.T) {
	_, led := windowPair(t, windowSpec(2, 1))
	if err := led.onCommit([]byte{0xff}); err == nil {
		t.Fatal("onCommit accepted garbage")
	}
	if stats := led.Stats(); stats.Violations != 0 {
		t.Fatalf("garbage counted as a violation: %+v", stats)
	}
}

// TestWindowCommitChecksMultiProof tampers with the one multiproof a window
// commit carries. Each forgery is a counted violation whose reason names the
// fault, never a session error; the honest proof settles although the
// cursor's challenge repeats a leaf, which the proof lists once. The forged
// proofs that drop or add a leaf are honest multiproofs of the committed
// tree: only the ledger's check that they answer exactly the challenge
// catches them.
func TestWindowCommitChecksMultiProof(t *testing.T) {
	spec := windowSpec(6, 4) // 6 and 7 leaves pad to one shape
	digest := func(id uint64) []byte { return streamDigest(id, spec.Kind, []byte{byte(id)}) }
	reencode := func(t *testing.T, mp merkle.MultiProof) []byte {
		t.Helper()
		data, err := mp.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		return data
	}
	prove := func(t *testing.T, tree *merkle.Tree, idxs []uint64) []byte {
		t.Helper()
		mp, err := tree.ProveMulti(idxs)
		if err != nil {
			t.Fatalf("ProveMulti: %v", err)
		}
		return reencode(t, mp)
	}
	for _, tc := range []struct {
		name   string
		forge  func(t *testing.T, tree *merkle.Tree, honest merkle.MultiProof) []byte
		reason string // "" for a window that settles
	}{
		{"honest, challenge repeats a leaf", func(t *testing.T, _ *merkle.Tree, honest merkle.MultiProof) []byte {
			return reencode(t, honest)
		}, ""},
		{"drops a challenged leaf", func(t *testing.T, tree *merkle.Tree, honest merkle.MultiProof) []byte {
			return prove(t, tree, honest.Indices[1:])
		}, "answers leaves"},
		{"adds an unchallenged leaf", func(t *testing.T, tree *merkle.Tree, honest merkle.MultiProof) []byte {
			for idx := uint64(0); ; idx++ {
				if _, challenged := honest.Value(idx); !challenged {
					return prove(t, tree, append(slices.Clone(honest.Indices), idx))
				}
			}
		}, "answers leaves"},
		{"claims another leaf count", func(t *testing.T, _ *merkle.Tree, honest merkle.MultiProof) []byte {
			honest.N = spec.WindowTasks + 1
			return reencode(t, honest)
		}, "over 7 leaves, want 6"},
		{"forges a sibling", func(t *testing.T, _ *merkle.Tree, honest merkle.MultiProof) []byte {
			honest.Siblings = slices.Clone(honest.Siblings)
			honest.Siblings[0] = bytes.Clone(honest.Siblings[0])
			honest.Siblings[0][0] ^= 1
			return reencode(t, honest)
		}, "does not match"},
		{"cannot be decoded", func(*testing.T, *merkle.Tree, merkle.MultiProof) []byte {
			return []byte{0xff}
		}, "undecodable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pw, led := windowPair(t, spec)
			var commit []byte
			digests := make([][]byte, spec.WindowTasks)
			for id := range digests {
				digests[id] = digest(uint64(id))
				led.record(uint64(id), digests[id])
				if err := pw.settle(uint64(id), digests[id], func(_ uint8, payload []byte) error {
					commit = payload
					return nil
				}); err != nil {
					t.Fatalf("settle(%d): %v", id, err)
				}
			}
			m, err := decodeWindowCommit(commit)
			if err != nil {
				t.Fatalf("decodeWindowCommit: %v", err)
			}
			var honest merkle.MultiProof
			if err := honest.UnmarshalBinary(m.Proof); err != nil {
				t.Fatalf("honest proof: %v", err)
			}
			if k := len(honest.Indices); k < 2 || k >= spec.WindowSamples {
				t.Fatalf("challenge %v: the fixture needs 2 or 3 distinct leaves of 6, a repeat among 4 samples", honest.Indices)
			}
			tree, err := merkle.Build(digests)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			m.Proof = tc.forge(t, tree, honest)
			if err := led.onCommit(encodeWindowCommit(m)); err != nil {
				t.Fatalf("onCommit: %v; a bad proof is a violation, not a session error", err)
			}
			stats := led.Stats()
			switch {
			case tc.reason == "" && (stats.Settled != 1 || stats.Violations != 0):
				t.Fatalf("Stats = %+v, want the window settled", stats)
			case tc.reason != "" && (stats.Settled != 0 || stats.Violations != 1 || !strings.Contains(stats.LastViolation, tc.reason)):
				t.Fatalf("Stats = %+v, want one violation naming %q", stats, tc.reason)
			}
		})
	}
}

func TestWindowCommitUndecidedTaskIsViolation(t *testing.T) {
	spec := windowSpec(2, 2)
	pw, led := windowPair(t, spec)
	// The participant commits task 1 the supervisor never decided.
	led.record(0, streamDigest(0, spec.Kind, []byte{0}))
	for id := uint64(0); id < 2; id++ {
		if err := pw.settle(id, streamDigest(id, spec.Kind, []byte{byte(id)}), func(_ uint8, payload []byte) error {
			return led.onCommit(payload)
		}); err != nil {
			t.Fatalf("settle(%d): %v", id, err)
		}
	}
	stats := led.Stats()
	if stats.Violations != 1 || !strings.Contains(stats.LastViolation, "never decided") {
		t.Fatalf("Stats = %+v", stats)
	}
}

// TestWindowStateCheckpointRoundTrip kills both sides mid-window and
// restores them from their serialized state: the next windows must settle as
// if nothing happened — the property kill-and-restart runs rest on.
func TestWindowStateCheckpointRoundTrip(t *testing.T) {
	spec := windowSpec(4, 2)
	pw, led := windowPair(t, spec)
	for id := uint64(0); id < 6; id++ { // one full window plus two pending
		settleTask(t, pw, led, id, streamDigest(id, spec.Kind, []byte{byte(id)}))
	}

	restoredPW, err := walkParticipantWindows(checkpointVersion, pw.appendState(nil))
	if err != nil {
		t.Fatalf("walkParticipantWindows: %v", err)
	}
	restoredLed, err := decodeWindowLedger(spec, led.appendState(nil))
	if err != nil {
		t.Fatalf("decodeWindowLedger: %v", err)
	}

	for id := uint64(6); id < 12; id++ {
		settleTask(t, restoredPW, restoredLed, id, streamDigest(id, spec.Kind, []byte{byte(id)}))
	}
	stats := restoredLed.Stats()
	if stats.Settled != 3 || stats.Violations != 0 {
		t.Fatalf("restored Stats = %+v, want 3 settled windows", stats)
	}
}

func TestWindowLedgerRequiresWindow(t *testing.T) {
	if _, err := NewWindowLedger(SchemeSpec{Kind: SchemeCBS, M: 8}); err == nil {
		t.Fatal("NewWindowLedger accepted a spec without windows")
	}
}
