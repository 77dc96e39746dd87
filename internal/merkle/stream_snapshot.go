package merkle

// Checkpointable streaming: a StreamBuilder's whole position is its leaf
// count plus the O(log n) frontier of pending subtree roots (the binary-
// counter stack), so a rolling commitment over a weeks-long stream can be
// persisted as a few hundred bytes and resumed after a process restart.
// Snapshot canonicalizes every engine mode — the fast pending-slot path,
// the allocating stack fallback, and the sharded worker pool — into the
// same frontier form, and RestoreStreamBuilder can rebuild any mode from
// it, so a stream may even be snapshotted serial and resumed sharded.

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
	// ErrBadWindow is returned for an invalid WithWindowTracking size.
	ErrBadWindow = errors.New("merkle: window size must be a power of two >= 1")
	// ErrNoWindowTracking is returned by WindowRoot when the builder was
	// built without WithWindowTracking.
	ErrNoWindowTracking = errors.New("merkle: window tracking not enabled")
	// ErrWindowUnavailable is returned by WindowRoot for a range that is
	// unaligned, beyond the stream position, or already evicted from the
	// retained ring.
	ErrWindowUnavailable = errors.New("merkle: window root unavailable")
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
// frontier levels always equals the set bits of Added. Window holds the
// rolling-window tracker state when WithWindowTracking is enabled.
type StreamSnapshot struct {
	N        int
	Added    int
	Frontier []FrontierEntry
	Window   *WindowSnapshot
}

// WindowSnapshot is the rolling-window tracker's position: the retained
// finalized window roots (Base is the index of the first one) and the
// frontier of the in-progress window.
type WindowSnapshot struct {
	W       int
	Keep    int
	Base    int
	Roots   [][]byte
	Partial []FrontierEntry
}

// frontier extracts a serial engine's pending subtree roots in descending
// level order, cloning every digest so the snapshot is detached from the
// builder's arena rows.
func (b *StreamBuilder) frontier() []FrontierEntry {
	var out []FrontierEntry
	if b.pending != nil {
		for level := b.depth; level >= 0; level-- {
			if b.pending[level] != nil {
				out = append(out, FrontierEntry{Level: level, Digest: cloneBytes(b.pending[level])})
			}
		}
		return out
	}
	for i := range b.stack {
		out = append(out, FrontierEntry{Level: b.levels[i], Digest: cloneBytes(b.stack[i])})
	}
	return out
}

// restoreFrontier seeds a fresh serial engine with a previously snapshotted
// position. Entries are cloned onto the heap: the restored digests are read
// (never written) by later merges, so they need no arena row.
func (b *StreamBuilder) restoreFrontier(added int, entries []FrontierEntry) {
	b.added = added
	if b.pending != nil {
		for _, e := range entries {
			b.pending[e.Level] = cloneBytes(e.Digest)
		}
		return
	}
	for _, e := range entries {
		b.stack = append(b.stack, cloneBytes(e.Digest))
		b.levels = append(b.levels, e.Level)
	}
}

// Snapshot captures the builder's position as a canonical frontier that
// RestoreStreamBuilder can resume from, in any engine mode. A sharded
// builder quiesces its workers first (each drains its buffered leaves and
// reports its engine frontier), then merges the completed span roots with
// the binary counter so the result is byte-identical to the serial
// builder's frontier at the same position. Snapshot is non-destructive: the
// builder keeps streaming afterwards.
func (b *StreamBuilder) Snapshot() (*StreamSnapshot, error) {
	if b.root != nil || b.closed {
		return nil, ErrFinalized
	}
	snap := &StreamSnapshot{N: b.n, Added: b.added}
	switch {
	case b.shards != nil:
		frontier, err := b.shardedFrontier()
		if err != nil {
			return nil, err
		}
		snap.Frontier = frontier
	default:
		snap.Frontier = b.frontier()
	}
	if b.win != nil {
		snap.Window = b.win.snapshot()
	}
	return snap, nil
}

// shardedFrontier canonicalizes a sharded builder's position: the prefix
// frontier (spans merged before a restore) and the completed shards' span
// roots feed a binary-counter merge at span height, and the in-progress
// shard's sub-span frontier rides below it untouched.
func (b *StreamBuilder) shardedFrontier() ([]FrontierEntry, error) {
	spanDepth := log2(b.span)
	cur := b.added / b.span // absolute index of the first incomplete span
	var stack [][]byte
	var levels []int
	push := func(v []byte, level int) {
		stack = append(stack, v)
		levels = append(levels, level)
		for len(stack) >= 2 && levels[len(levels)-1] == levels[len(levels)-2] {
			top := len(stack) - 1
			merged := b.hs.combine(stack[top-1], stack[top])
			lvl := levels[top] + 1
			stack = append(stack[:top-1], merged)
			levels = append(levels[:top-1], lvl)
		}
	}
	for _, e := range b.prefix {
		push(cloneBytes(e.Digest), e.Level)
	}
	var partial []FrontierEntry
	for s := b.firstSpan; s <= cur && s-b.firstSpan < len(b.shards); s++ {
		st, err := b.shards[s-b.firstSpan].quiesce()
		if err != nil {
			return nil, err
		}
		switch {
		case s < cur:
			// A complete span: its engine holds exactly one pending root at
			// span height (the span is a full power-of-two subtree).
			if len(st.frontier) != 1 || st.frontier[0].Level != spanDepth {
				return nil, fmt.Errorf("merkle: internal error: completed shard %d frontier has %d entries", s, len(st.frontier))
			}
			push(st.frontier[0].Digest, spanDepth)
		case b.added%b.span > 0:
			partial = st.frontier
		}
	}
	out := make([]FrontierEntry, 0, len(stack)+len(partial))
	for i := range stack {
		out = append(out, FrontierEntry{Level: levels[i], Digest: stack[i]})
	}
	out = append(out, partial...)
	return out, nil
}

// quiesce asks the shard worker to drain its channel and report its engine
// position.
func (sh *streamShard) quiesce() (shardState, error) {
	req := make(chan shardState)
	sh.flush <- req
	st := <-req
	if st.err != nil {
		return shardState{}, st.err
	}
	return st, nil
}

// RestoreStreamBuilder resumes a stream from a snapshot. The restored
// builder continues at leaf index snap.Added and produces a root
// byte-identical to an uninterrupted build over the same leaves. Options
// follow NewStreamBuilder: WithParallelism restores into sharded mode
// (workers are spawned for the spans at or after the restore point; the
// already-merged spans ride along as a prefix frontier), and the hasher
// must match the one the snapshot was taken with.
func RestoreStreamBuilder(snap *StreamSnapshot, opts ...Option) (*StreamBuilder, error) {
	o := buildOptions(opts)
	hs := newHashers(o)
	if err := validateSnapshot(snap); err != nil {
		return nil, err
	}
	capacity := nextPow2(snap.N)
	var b *StreamBuilder
	if shards := streamShards(o.parallelism, capacity); shards > 1 {
		b = &StreamBuilder{n: snap.N, added: snap.Added, cap: capacity, depth: log2(capacity), hs: hs}
		span := capacity / shards
		spanDepth := log2(span)
		firstSpan := snap.Added / span
		var partial []FrontierEntry
		for _, e := range snap.Frontier {
			if e.Level >= spanDepth {
				b.prefix = append(b.prefix, FrontierEntry{Level: e.Level, Digest: cloneBytes(e.Digest)})
			} else {
				partial = append(partial, e)
			}
		}
		b.startShards(shards, firstSpan, partial, snap.Added%span)
	} else {
		b = newSerialStream(snap.N, hs)
		b.restoreFrontier(snap.Added, snap.Frontier)
	}
	if snap.Window != nil {
		win, err := restoreWindowTracker(snap.Window, hs)
		if err != nil {
			return nil, err
		}
		b.win = win
	} else if o.window > 0 {
		return nil, fmt.Errorf("%w: snapshot carries no window state", ErrBadStreamSnapshot)
	}
	return b, nil
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
	if w := snap.Window; w != nil {
		if w.W < 1 || w.W != nextPow2(w.W) {
			return fmt.Errorf("%w: window size %d", ErrBadStreamSnapshot, w.W)
		}
		if w.Base < 0 || w.Base*w.W > snap.Added {
			return fmt.Errorf("%w: window base %d beyond position %d", ErrBadStreamSnapshot, w.Base, snap.Added)
		}
		full := snap.Added / w.W
		if w.Base+len(w.Roots) != full {
			return fmt.Errorf("%w: %d retained roots at base %d, want end %d", ErrBadStreamSnapshot, len(w.Roots), w.Base, full)
		}
		for i, r := range w.Roots {
			if r == nil {
				return fmt.Errorf("%w: nil window root %d", ErrBadStreamSnapshot, w.Base+i)
			}
		}
		partial := snap.Added % w.W
		j := 0
		for level := log2(w.W); level >= 0; level-- {
			if partial>>uint(level)&1 == 0 {
				continue
			}
			if j >= len(w.Partial) || w.Partial[j].Level != level || w.Partial[j].Digest == nil {
				return fmt.Errorf("%w: window partial frontier missing level %d", ErrBadStreamSnapshot, level)
			}
			j++
		}
		if j != len(w.Partial) {
			return fmt.Errorf("%w: %d extra window partial entries", ErrBadStreamSnapshot, len(w.Partial)-j)
		}
	}
	return nil
}

// windowTracker maintains standalone Merkle roots over consecutive w-leaf
// windows of the stream: the in-progress window runs a serial sub-builder,
// and finalized window roots land in a bounded ring. Memory is
// O(w + keep + log w) regardless of stream length.
type windowTracker struct {
	w    int
	keep int
	base int
	hs   hashers

	roots [][]byte
	eng   *StreamBuilder
}

func newWindowTracker(w, keep int, hs hashers) (*windowTracker, error) {
	if w < 1 || w != nextPow2(w) {
		return nil, fmt.Errorf("%w: got %d", ErrBadWindow, w)
	}
	return &windowTracker{w: w, keep: keep, hs: hs, eng: newSerialStream(w, hs)}, nil
}

func restoreWindowTracker(snap *WindowSnapshot, hs hashers) (*windowTracker, error) {
	win, err := newWindowTracker(snap.W, snap.Keep, hs)
	if err != nil {
		return nil, err
	}
	win.base = snap.Base
	win.roots = make([][]byte, len(snap.Roots))
	for i, r := range snap.Roots {
		win.roots[i] = cloneBytes(r)
	}
	partial := snap.Added() % snap.W
	win.eng.restoreFrontier(partial, snap.Partial)
	return win, nil
}

// Added reconstructs the stream position implied by the window state.
func (s *WindowSnapshot) Added() int {
	partial := 0
	for _, e := range s.Partial {
		partial += 1 << uint(e.Level)
	}
	return (s.Base+len(s.Roots))*s.W + partial
}

func (t *windowTracker) add(value []byte) {
	// The engine's own validation already ran in StreamBuilder.Add.
	_ = t.eng.Add(value)
	if t.eng.added < t.w {
		return
	}
	root, _ := t.eng.Root()
	t.roots = append(t.roots, root)
	if t.keep > 0 && len(t.roots) > t.keep {
		drop := len(t.roots) - t.keep
		t.roots = append([][]byte(nil), t.roots[drop:]...)
		t.base += drop
	}
	t.eng = newSerialStream(t.w, t.hs)
}

func (t *windowTracker) snapshot() *WindowSnapshot {
	roots := make([][]byte, len(t.roots))
	for i, r := range t.roots {
		roots[i] = cloneBytes(r)
	}
	return &WindowSnapshot{W: t.w, Keep: t.keep, Base: t.base, Roots: roots, Partial: t.eng.frontier()}
}

// WindowRoot returns the Merkle root of the standalone tree over leaves
// [lo, hi) of the stream, computed from the retained per-window roots —
// the supervisor-side spot-check of a rolling commitment, served without
// holding any leaves. Requires WithWindowTracking; lo must be a multiple
// of the window size and hi either a multiple of it or the current stream
// position (a partial tail window is padded like any incomplete tree).
// Ranges older than the retained ring return ErrWindowUnavailable.
//
// WindowRoot(0, n) over a fully-added stream equals Root().
func (b *StreamBuilder) WindowRoot(lo, hi int) ([]byte, error) {
	t := b.win
	if t == nil {
		return nil, ErrNoWindowTracking
	}
	if lo < 0 || lo >= hi || hi > b.added || lo%t.w != 0 || (hi%t.w != 0 && hi != b.added) {
		return nil, fmt.Errorf("%w: range [%d, %d) at position %d, window %d", ErrWindowUnavailable, lo, hi, b.added, t.w)
	}
	first := lo / t.w
	if first < t.base {
		return nil, fmt.Errorf("%w: window %d evicted (ring starts at %d)", ErrWindowUnavailable, first, t.base)
	}
	spanDepth := log2(t.w)
	pads := t.hs.padTable(spanDepth)
	count := (hi - lo + t.w - 1) / t.w
	roots := make([][]byte, 0, count)
	for k := first; k < first+count; k++ {
		if k-t.base < len(t.roots) {
			roots = append(roots, t.roots[k-t.base])
			continue
		}
		// The tail window is the in-progress one: finalize a detached clone
		// of its engine and lift it to window height with all-pad siblings,
		// byte-identical to padding the window out leaf by leaf.
		partial := b.added % t.w
		clone := newSerialStream(partial, t.hs)
		clone.restoreFrontier(partial, t.eng.frontier())
		root, err := clone.Root()
		if err != nil {
			return nil, err
		}
		for h := clone.depth; h < spanDepth; h++ {
			root = t.hs.combine(root, pads[h])
		}
		roots = append(roots, root)
	}
	// Merge the window roots as super-leaves of a standalone tree over
	// [lo, hi): pad to a power of two with all-pad window roots and fold.
	total := nextPow2(count)
	for len(roots) < total {
		roots = append(roots, pads[spanDepth])
	}
	for m := len(roots); m > 1; m /= 2 {
		for i := 0; i < m; i += 2 {
			roots[i/2] = t.hs.combine(roots[i], roots[i+1])
		}
	}
	return cloneBytes(roots[0]), nil
}

// MarshalBinary encodes the snapshot with the same compact length-prefixed
// layout the wire codecs use, so checkpoints can embed it directly.
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
	putFrontier := func(entries []FrontierEntry) {
		putUvarint(uint64(len(entries)))
		for _, e := range entries {
			putUvarint(uint64(e.Level))
			putUvarint(uint64(len(e.Digest)))
			buf.Write(e.Digest)
		}
	}
	putUvarint(uint64(s.N))
	putUvarint(uint64(s.Added))
	putFrontier(s.Frontier)
	if s.Window == nil {
		putUvarint(0)
	} else {
		putUvarint(1)
		putUvarint(uint64(s.Window.W))
		putUvarint(uint64(s.Window.Keep))
		putUvarint(uint64(s.Window.Base))
		putUvarint(uint64(len(s.Window.Roots)))
		for _, r := range s.Window.Roots {
			putUvarint(uint64(len(r)))
			buf.Write(r)
		}
		putFrontier(s.Window.Partial)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a snapshot produced by MarshalBinary and
// validates the binary-counter invariant before accepting it.
func (s *StreamSnapshot) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	bad := func(field string, err error) error {
		return fmt.Errorf("%w: %s: %v", ErrBadStreamSnapshot, field, err)
	}
	readFrontier := func(field string) ([]FrontierEntry, error) {
		count, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, bad(field, err)
		}
		if count > 128 {
			return nil, fmt.Errorf("%w: %s: %d entries", ErrBadStreamSnapshot, field, count)
		}
		entries := make([]FrontierEntry, 0, count)
		for i := uint64(0); i < count; i++ {
			level, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, bad(field, err)
			}
			if level > 63 {
				return nil, fmt.Errorf("%w: %s: level %d", ErrBadStreamSnapshot, field, level)
			}
			digest, err := readBytes(r)
			if err != nil {
				return nil, bad(field, err)
			}
			entries = append(entries, FrontierEntry{Level: int(level), Digest: digest})
		}
		return entries, nil
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
	decoded := StreamSnapshot{N: int(n), Added: int(added)}
	if decoded.Frontier, err = readFrontier("frontier"); err != nil {
		return err
	}
	hasWindow, err := binary.ReadUvarint(r)
	if err != nil {
		return bad("window flag", err)
	}
	switch hasWindow {
	case 0:
	case 1:
		w := &WindowSnapshot{}
		var v uint64
		if v, err = binary.ReadUvarint(r); err != nil {
			return bad("window size", err)
		}
		if v > 1<<40 {
			return fmt.Errorf("%w: window size %d", ErrBadStreamSnapshot, v)
		}
		w.W = int(v)
		if v, err = binary.ReadUvarint(r); err != nil {
			return bad("window keep", err)
		}
		if v > 1<<40 {
			return fmt.Errorf("%w: window keep %d", ErrBadStreamSnapshot, v)
		}
		w.Keep = int(v)
		if v, err = binary.ReadUvarint(r); err != nil {
			return bad("window base", err)
		}
		if v > 1<<56 {
			return fmt.Errorf("%w: window base %d", ErrBadStreamSnapshot, v)
		}
		w.Base = int(v)
		count, err := binary.ReadUvarint(r)
		if err != nil {
			return bad("window root count", err)
		}
		if count > uint64(r.Len()) {
			return fmt.Errorf("%w: %d window roots exceed payload", ErrBadStreamSnapshot, count)
		}
		w.Roots = make([][]byte, 0, count)
		for i := uint64(0); i < count; i++ {
			root, err := readBytes(r)
			if err != nil {
				return bad("window root", err)
			}
			w.Roots = append(w.Roots, root)
		}
		if w.Partial, err = readFrontier("window partial"); err != nil {
			return err
		}
		decoded.Window = w
	default:
		return fmt.Errorf("%w: window flag %d", ErrBadStreamSnapshot, hasWindow)
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
