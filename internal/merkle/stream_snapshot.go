package merkle

// Checkpointable streaming: a StreamBuilder's whole position is its leaf
// count plus the O(log n) frontier of pending subtree roots (the binary-
// counter stack), so a rolling commitment over a weeks-long stream can be
// persisted as a few hundred bytes and resumed after a process restart.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Snapshot/restore errors.
var (
	// ErrFinalized is returned when Snapshot is called after Root: a
	// finalized builder has folded its frontier away.
	ErrFinalized = errors.New("merkle: stream builder already finalized")
	// ErrBadStreamSnapshot is returned for a snapshot whose frontier is
	// inconsistent with its declared position.
	ErrBadStreamSnapshot = errors.New("merkle: malformed stream snapshot")
)

// FrontierEntry is one pending subtree root of a streaming build: the root
// of a completed height-Level subtree awaiting its right sibling. Entries
// are ordered by strictly descending level; level-0 entries hold a raw leaf
// value rather than a digest.
type FrontierEntry struct {
	Level  int
	Digest []byte
}

// StreamSnapshot is a StreamBuilder's complete resumable position: the
// declared and consumed leaf counts plus the canonical frontier. The set of
// frontier levels always equals the set bits of Added.
type StreamSnapshot struct {
	N        int
	Added    int
	Frontier []FrontierEntry
}

// frontier extracts the pending subtree roots in descending level order,
// cloning every digest so the snapshot is detached from the builder's arena
// rows.
func (b *StreamBuilder) frontier() []FrontierEntry {
	var out []FrontierEntry
	for level := b.depth; level >= 0; level-- {
		if b.pending[level] != nil {
			out = append(out, FrontierEntry{Level: level, Digest: cloneBytes(b.pending[level])})
		}
	}
	return out
}

// Snapshot captures the builder's position as a canonical frontier that
// RestoreStreamBuilder can resume from. Snapshot is non-destructive: the
// builder keeps streaming afterwards.
func (b *StreamBuilder) Snapshot() (*StreamSnapshot, error) {
	if b.root != nil {
		return nil, ErrFinalized
	}
	return &StreamSnapshot{N: b.n, Added: b.added, Frontier: b.frontier()}, nil
}

// RestoreStreamBuilder resumes a stream from a snapshot. The restored
// builder continues at leaf index snap.Added and produces a root
// byte-identical to an uninterrupted build over the same leaves. Options
// follow NewStreamBuilder; the hasher must match the one the snapshot was
// taken with.
func RestoreStreamBuilder(snap *StreamSnapshot, opts ...Option) (*StreamBuilder, error) {
	if err := validateSnapshot(snap); err != nil {
		return nil, err
	}
	return newStream(snap.N, snap.Added, snap.Frontier, buildOptions(opts))
}

func validateSnapshot(snap *StreamSnapshot) error {
	if snap == nil {
		return fmt.Errorf("%w: nil snapshot", ErrBadStreamSnapshot)
	}
	if snap.N <= 0 {
		return fmt.Errorf("%w: non-positive leaf count %d", ErrBadStreamSnapshot, snap.N)
	}
	if snap.Added < 0 || snap.Added > snap.N {
		return fmt.Errorf("%w: position %d not in [0, %d]", ErrBadStreamSnapshot, snap.Added, snap.N)
	}
	// The frontier levels must be exactly the set bits of Added, in
	// strictly descending order — the binary-counter invariant.
	want := snap.Added
	i := 0
	for level := log2(nextPow2(snap.N)); level >= 0; level-- {
		if want>>uint(level)&1 == 0 {
			continue
		}
		if i >= len(snap.Frontier) || snap.Frontier[i].Level != level {
			return fmt.Errorf("%w: frontier missing level %d for position %d", ErrBadStreamSnapshot, level, snap.Added)
		}
		if snap.Frontier[i].Digest == nil {
			return fmt.Errorf("%w: nil digest at level %d", ErrBadStreamSnapshot, level)
		}
		i++
	}
	if i != len(snap.Frontier) {
		return fmt.Errorf("%w: %d extra frontier entries for position %d", ErrBadStreamSnapshot, len(snap.Frontier)-i, snap.Added)
	}
	return nil
}

// MarshalBinary encodes the snapshot with the same compact length-prefixed
// layout the wire codecs use, so checkpoints can embed it directly:
// uvarint(n) || uvarint(added) || uvarint(len(frontier)) ||
// (uvarint(level) || uvarint(len(digest)) || digest)* || 0. The trailing 0
// is the flag of a window-tracking section the builder no longer has; it
// keeps the bytes of checkpoints written before it went.
func (s *StreamSnapshot) MarshalBinary() ([]byte, error) {
	if err := validateSnapshot(s); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	putUvarint(uint64(s.N))
	putUvarint(uint64(s.Added))
	putUvarint(uint64(len(s.Frontier)))
	for _, e := range s.Frontier {
		putUvarint(uint64(e.Level))
		putUvarint(uint64(len(e.Digest)))
		buf.Write(e.Digest)
	}
	putUvarint(0)
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a snapshot produced by MarshalBinary and
// validates the binary-counter invariant before accepting it. A window flag
// other than 0 is refused.
func (s *StreamSnapshot) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	bad := func(field string, err error) error {
		return fmt.Errorf("%w: %s: %v", ErrBadStreamSnapshot, field, err)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return bad("leaf count", err)
	}
	added, err := binary.ReadUvarint(r)
	if err != nil {
		return bad("position", err)
	}
	if n > 1<<56 || added > n {
		return fmt.Errorf("%w: position %d of %d", ErrBadStreamSnapshot, added, n)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return bad("frontier", err)
	}
	if count > 128 {
		return fmt.Errorf("%w: frontier: %d entries", ErrBadStreamSnapshot, count)
	}
	decoded := StreamSnapshot{N: int(n), Added: int(added), Frontier: make([]FrontierEntry, 0, count)}
	for i := uint64(0); i < count; i++ {
		level, err := binary.ReadUvarint(r)
		if err != nil {
			return bad("frontier", err)
		}
		if level > 63 {
			return fmt.Errorf("%w: frontier: level %d", ErrBadStreamSnapshot, level)
		}
		digest, err := readBytes(r)
		if err != nil {
			return bad("frontier", err)
		}
		decoded.Frontier = append(decoded.Frontier, FrontierEntry{Level: int(level), Digest: digest})
	}
	flag, err := binary.ReadUvarint(r)
	if err != nil {
		return bad("window flag", err)
	}
	if flag != 0 {
		return fmt.Errorf("%w: window flag %d", ErrBadStreamSnapshot, flag)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadStreamSnapshot, r.Len())
	}
	if err := validateSnapshot(&decoded); err != nil {
		return err
	}
	*s = decoded
	return nil
}

// readBytes reads one length-prefixed field of a snapshot.
func readBytes(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("declared length %d exceeds remaining %d", n, r.Len())
	}
	out := make([]byte, n)
	if n == 0 {
		// bytes.Reader reports io.EOF for empty reads at the end of the
		// buffer; zero-length digests are rejected later, by validation.
		return out, nil
	}
	if _, err := r.Read(out); err != nil {
		return nil, err
	}
	return out, nil
}
