package hashchain

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// windowRoots fabricates deterministic per-window commitment roots; flip
// selects one window whose root is perturbed (flip < 0 perturbs none).
func windowRoots(windows int, flip int) [][]byte {
	roots := make([][]byte, windows)
	for k := range roots {
		d := sha256.Sum256([]byte{byte(k), byte(k >> 8), 0x5a})
		if k == flip {
			d[0] ^= 0x01
		}
		roots[k] = d[:]
	}
	return roots
}

// TestCursorSnapshotRestoreDeterministic is the satellite property test:
// for arbitrary split points, a cursor snapshotted mid-stream and restored
// walks on to exactly the states and indices of an uninterrupted cursor.
func TestCursorSnapshotRestoreDeterministic(t *testing.T) {
	chain, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	const windows, m, n = 24, 5, 1 << 20
	rng := rand.New(rand.NewSource(7))
	roots := windowRoots(windows, -1)
	for trial := 0; trial < 50; trial++ {
		split := rng.Intn(windows + 1)
		full, err := chain.NewCursor([]byte("stream seed"))
		if err != nil {
			t.Fatal(err)
		}
		part, err := chain.NewCursor([]byte("stream seed"))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < split; k++ {
			if err := full.Advance(roots[k]); err != nil {
				t.Fatal(err)
			}
			if err := part.Advance(roots[k]); err != nil {
				t.Fatal(err)
			}
		}
		snap := part.Snapshot()
		// Mutating the snapshot must not reach back into the cursor.
		if len(snap.State) > 0 {
			snap.State[0] ^= 0xff
			snap.State[0] ^= 0xff
		}
		restored, err := chain.RestoreCursor(snap)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Window() != uint64(split) {
			t.Fatalf("split=%d: restored window %d", split, restored.Window())
		}
		for k := split; k < windows; k++ {
			if err := full.Advance(roots[k]); err != nil {
				t.Fatal(err)
			}
			if err := restored.Advance(roots[k]); err != nil {
				t.Fatal(err)
			}
			wantIdx, err := full.Indices(m, n)
			if err != nil {
				t.Fatal(err)
			}
			gotIdx, err := restored.Indices(m, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantIdx, gotIdx) {
				t.Fatalf("split=%d window=%d: indices diverge", split, k)
			}
		}
		if !bytes.Equal(full.State(), restored.State()) {
			t.Fatalf("split=%d: final states diverge", split)
		}
	}
}

// TestCursorHistoryBinding is the second satellite property: the indices
// for window k+1 must change whenever any window <= k contributed a
// different root — the challenge is bound to the whole history.
func TestCursorHistoryBinding(t *testing.T) {
	chain, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	const windows, m, n = 10, 8, 1 << 16
	clean := windowRoots(windows, -1)
	for flip := 0; flip < windows; flip++ {
		honest, err := chain.NewCursor([]byte("seed"))
		if err != nil {
			t.Fatal(err)
		}
		tampered, err := chain.NewCursor([]byte("seed"))
		if err != nil {
			t.Fatal(err)
		}
		flipped := windowRoots(windows, flip)
		for k := 0; k < windows; k++ {
			if err := honest.Advance(clean[k]); err != nil {
				t.Fatal(err)
			}
			if err := tampered.Advance(flipped[k]); err != nil {
				t.Fatal(err)
			}
			hi, err := honest.Indices(m, n)
			if err != nil {
				t.Fatal(err)
			}
			ti, err := tampered.Indices(m, n)
			if err != nil {
				t.Fatal(err)
			}
			if k < flip {
				if !reflect.DeepEqual(hi, ti) {
					t.Fatalf("flip=%d window=%d: indices diverged before the tampered window", flip, k)
				}
				continue
			}
			// From the tampered window on, every later window's challenge
			// must differ (collision of 8 independent indices over 2^16 is
			// astronomically unlikely for a cryptographic hash).
			if reflect.DeepEqual(hi, ti) {
				t.Fatalf("flip=%d window=%d: tampered history produced identical indices", flip, k)
			}
		}
	}
}

func TestCursorValidation(t *testing.T) {
	chain, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.NewCursor(nil); !errors.Is(err, ErrEmptySeed) {
		t.Fatalf("empty seed: got %v", err)
	}
	cu, err := chain.NewCursor([]byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cu.Advance(nil); !errors.Is(err, ErrEmptySeed) {
		t.Fatalf("empty root: got %v", err)
	}
	if _, err := chain.RestoreCursor(CursorSnapshot{}); !errors.Is(err, ErrBadCursorState) {
		t.Fatalf("empty state: got %v", err)
	}
	if _, err := chain.RestoreCursor(CursorSnapshot{State: make([]byte, maxCursorState+1)}); !errors.Is(err, ErrBadCursorState) {
		t.Fatalf("oversized state: got %v", err)
	}
}

// TestCursorAdvanceMatchesDefinition pins the in-place advance to its
// definition, s_{k+1} = g(s_k || root), computed the long way.
func TestCursorAdvanceMatchesDefinition(t *testing.T) {
	chain, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	cu, err := chain.NewCursor([]byte("stream seed"))
	if err != nil {
		t.Fatal(err)
	}
	for k, root := range windowRoots(6, -1) {
		want := chain.Apply(append(cu.State(), root...))
		if err := cu.Advance(root); err != nil {
			t.Fatal(err)
		}
		if got := cu.State(); !bytes.Equal(got, want) {
			t.Fatalf("window %d: state %x, want g(state || root) = %x", k, got, want)
		}
	}
}
