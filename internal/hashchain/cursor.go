package hashchain

// Per-window challenge derivation for long-horizon streams. A bounded batch
// derives its sample indices once, from the single commitment (Eq. 4). An
// unbounded stream settles in windows, and the cursor extends Eq. 4 across
// them: the state after window k is s_k = g(s_{k-1} || Φ(R_k)), so the
// indices challenged in window k+1 depend on every window root up to and
// including k. A participant cannot predict a future window's challenge
// without fixing its entire history first — the same pre-commitment argument
// as the non-interactive scheme, applied per-window.

import (
	"errors"
	"fmt"
)

// Cursor errors.
var (
	// ErrBadCursorState is returned when restoring a cursor from an empty
	// or oversized state.
	ErrBadCursorState = errors.New("hashchain: invalid cursor state")
)

// maxCursorState bounds a restored state so a corrupt checkpoint cannot
// allocate unbounded memory. Any real chain state is one digest.
const maxCursorState = 1024

// Cursor is an advanceable per-window chain state. It is created from a
// shared seed, absorbs each window's Merkle root as the window settles, and
// derives the sample indices for the *next* window from the absorbed
// history. A Cursor is not safe for concurrent use.
type Cursor struct {
	chain  *Chain
	state  []byte
	window uint64
}

// NewCursor starts a cursor at window 0 with state g(seed). Both protocol
// sides must start from the same seed to derive the same challenges.
func (c *Chain) NewCursor(seed []byte) (*Cursor, error) {
	if len(seed) == 0 {
		return nil, ErrEmptySeed
	}
	return &Cursor{chain: c, state: c.Apply(seed), window: 0}, nil
}

// Advance absorbs the settled window's commitment root:
// s_{k+1} = g(s_k || root). The cursor moves to the next window.
func (cu *Cursor) Advance(root []byte) error {
	if len(root) == 0 {
		return ErrEmptySeed
	}
	w := cu.chain.walker()
	cu.state = w.step(cu.state, cu.state, root)
	cu.window++
	return nil
}

// Indices derives the m sample indices for the cursor's current window from
// its state — Eq. 4 with the chained state standing in for the commitment.
func (cu *Cursor) Indices(m int, n uint64) ([]uint64, error) {
	return cu.chain.SampleIndices(cu.state, m, n)
}

// Window reports how many windows the cursor has absorbed.
func (cu *Cursor) Window() uint64 { return cu.window }

// State returns a copy of the current chain state.
func (cu *Cursor) State() []byte {
	out := make([]byte, len(cu.state))
	copy(out, cu.state)
	return out
}

// CursorSnapshot is a cursor's durable position: the chain state and the
// number of windows absorbed. The chain parameters (iteration count, hash)
// are configuration, not state — a restore must supply the same Chain.
type CursorSnapshot struct {
	State  []byte
	Window uint64
}

// Snapshot captures the cursor's position for a checkpoint.
func (cu *Cursor) Snapshot() CursorSnapshot {
	return CursorSnapshot{State: cu.State(), Window: cu.window}
}

// RestoreCursor resumes a cursor from a snapshot taken against the same
// chain configuration. The restored cursor is byte-for-byte the cursor that
// was snapshotted: advancing both with the same roots yields identical
// states and indices.
func (c *Chain) RestoreCursor(snap CursorSnapshot) (*Cursor, error) {
	if len(snap.State) == 0 || len(snap.State) > maxCursorState {
		return nil, fmt.Errorf("%w: %d state bytes", ErrBadCursorState, len(snap.State))
	}
	state := make([]byte, len(snap.State))
	copy(state, snap.State)
	return &Cursor{chain: c, state: state, window: snap.Window}, nil
}
