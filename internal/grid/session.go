package grid

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uncheatgrid/internal/transport"
)

// This file implements sessions, the one wire mode: a supervisor opens a
// Session on a connection and keeps up to `window` tasks in flight at once
// (window 1 is the paper's one-exchange-at-a-time dialogue). Every protocol
// message is tagged with its task ID and travels inside msgBatch frames, so
// small messages from concurrent tasks coalesce and share frame headers —
// the audit-pipeline shape of Goodrich (arXiv:0906.1225) applied to the CBS
// schemes.

// batchTargetBytes is the soft cap on how much tagged payload one coalesced
// frame carries before the writer stops gathering more. A single oversized
// sub-message still travels alone.
const batchTargetBytes = 1 << 20

// maxBatchPayload is the hard cap: a coalesced frame's payload must stay a
// legal transport frame, with headroom for the batch count prefix. A batch
// always carries at least one message, so tag framing shaves ~20 bytes off
// the largest single payload a session can carry versus a bare frame;
// uploads are chunked well below it (uploadChunkBytes).
const maxBatchPayload = transport.MaxFrameBytes - 16

// outMsg is one queued tagged message plus the task the flush settles it
// for: owner learns whether the message actually entered the wire, which is
// when — and only when — its bytes are credited to the task. Crediting at
// enqueue time would count frames a quarantined writer later discards,
// overstating a faulty run's per-task sent bytes against the connection
// counters. A nil owner (ctrl traffic, and everything a participant sends)
// has nothing to settle; its flushed bytes are writer overhead.
type outMsg struct {
	tm taggedMsg
	// then, when paired, rides in tm's frame right behind it: a pair of
	// messages a lossy link must deliver together or not at all
	// (sessionTaskConn.SendPair).
	then   taggedMsg
	paired bool
	owner  *sessionTaskConn
}

// wireSize is the tagged bytes m puts in its frame.
func (m outMsg) wireSize() int64 {
	size := m.tm.wireSize()
	if m.paired {
		size += m.then.wireSize()
	}
	return size
}

// count is the number of tagged messages m puts in its frame.
func (m outMsg) count() int {
	if m.paired {
		return 2
	}
	return 1
}

// done settles the message: sent or discarded, its owner stops waiting.
//
//gridlint:credit called from flush only, the point where sent bytes are real wire bytes
func (m outMsg) done(sent bool) int64 {
	if m.owner == nil {
		return 0
	}
	var size int64
	if sent {
		size = m.wireSize()
		m.owner.sent.Add(size)
	}
	m.owner.inflight.Done()
	return size
}

// batchWriter serializes task-tagged messages from many goroutines onto one
// connection, coalescing whatever is queued into msgBatch frames.
//
// The flush rule: the writer takes one message, gathers everything else
// already queued, and sends. On a link whose Send is a system call
// (transport.Stats.SendCopies) a writer that finds nothing else queued first
// yields the processor once and gathers again: the goroutines the same
// incoming frame woke — the other tasks of the window, each about to queue a
// reply — are runnable and get the processor before the writer has it back,
// so their messages ride the same write instead of paying one each. The
// yield can cost at most one scheduler turn: it arms no timer and waits on
// no event, an idle process hands the processor straight back, and a batch
// that already holds two messages never yields — so a cheap reply is never
// parked behind work that has not been scheduled yet. On a pipe or a mux
// route Send is a channel operation with nothing to amortise (a yield there
// only delays the frame), and the link says so. On a copying link the writer
// also takes the frame buffer back once Send returns (transport/pool.go has
// the ownership rule).
//
// After a send error the writer keeps draining (and discarding) its queue so
// enqueuers can never wedge; the error fires the onFail hook once (enqueue
// is asynchronous, so a task that already queued its message may otherwise
// be blocked waiting for a reply to a frame that was discarded), is
// reported on the next enqueue, and by close. Every queued message is
// settled exactly once — flushed or discarded — so senders can await exact
// accounting.
//
// close must not race enqueue: both endpoints guarantee their task
// goroutines have finished (window slots / WaitGroup) before closing.
type batchWriter struct {
	conn   transport.Conn
	in     chan outMsg
	done   chan struct{}
	onFail func(error)

	// mu guards err and overhead only and is never held across a blocking
	// operation.
	mu       sync.Mutex
	err      error
	overhead int64

	// batchScratch and msgScratch are reused across loop iterations and
	// flushes. Only the writer goroutine touches them, and flush copies
	// every byte into the encoded frame before returning, so reuse is safe.
	batchScratch []outMsg
	msgScratch   []taggedMsg
}

// soloFrames, when set (tests only), stops every writer coalescing: each
// message goes out in a frame of its own, and a pair in one frame — the
// schedule under which a lossy link separates messages sent back to back.
var soloFrames atomic.Bool

func newBatchWriter(conn transport.Conn, onFail func(error)) *batchWriter {
	w := &batchWriter{
		conn:   conn,
		in:     make(chan outMsg, 64),
		done:   make(chan struct{}),
		onFail: onFail,
	}
	go w.loop()
	return w
}

func (w *batchWriter) loop() {
	defer close(w.done)
	// carry is the next frame's first message when a batch hit the hard cap.
	var carry outMsg
	carried := false
	for {
		first := carry
		if carried {
			carry, carried = outMsg{}, false
		} else {
			var ok bool
			if first, ok = <-w.in; !ok {
				return
			}
		}
		batch := append(w.batchScratch[:0], first)
		size, count := first.wireSize(), first.count()
		if len(w.in) == 0 && w.conn.Stats().SendCopies() {
			// A lone message on a link that pays a system call per frame:
			// let whoever is runnable queue its reply first.
			runtime.Gosched()
		}
	coalesce:
		// count stops one short of maxBatchMsgs so a pair always fits.
		for count < maxBatchMsgs-1 && size < batchTargetBytes && !soloFrames.Load() {
			select {
			case m, ok := <-w.in:
				if !ok {
					w.flush(batch)
					return
				}
				if size+m.wireSize() > maxBatchPayload {
					// Adding m would overflow a legal frame; it opens the
					// next one instead.
					carry, carried = m, true
					break coalesce
				}
				batch = append(batch, m)
				size += m.wireSize()
				count += m.count()
			default:
				break coalesce
			}
		}
		w.flush(batch)
		w.batchScratch = batch[:0]
	}
}

// flush writes one coalesced batch frame and settles its messages: each
// owning task learns whether its bytes reached the wire, and what the frame
// carried beyond them — framing, and messages no task owns — accrues to the
// writer.
//
//gridlint:credit flush time is the only point where sent bytes are real wire bytes
func (w *batchWriter) flush(batch []outMsg) {
	if w.failed() != nil {
		// Drain mode: consume without sending so enqueuers never block. The
		// discarded messages settle uncredited — they never hit the wire.
		for _, m := range batch {
			m.done(false)
		}
		return
	}
	msgs := w.msgScratch[:0]
	for _, m := range batch {
		msgs = append(msgs, m.tm)
		if m.paired {
			msgs = append(msgs, m.then)
		}
	}
	w.msgScratch = msgs[:0]
	frame := transport.Message{Type: msgBatch, Payload: encodeBatch(msgs)}
	if err := w.conn.Send(frame); err != nil {
		w.fail(err)
		for _, m := range batch {
			m.done(false)
		}
		return
	}
	var tagged int64
	for _, m := range batch {
		tagged += m.done(true)
	}
	w.mu.Lock()
	w.overhead += frame.FrameSize() - tagged
	w.mu.Unlock()
	if w.conn.Stats().SendCopies() {
		// The kernel has its copy, so the buffer encodeBatch drew is the
		// writer's again; on any other link it now belongs to the receiver.
		transport.RecyclePayload(frame.Payload)
	}
}

func (w *batchWriter) fail(err error) {
	w.mu.Lock()
	first := w.err == nil
	if first {
		w.err = err
	}
	w.mu.Unlock()
	if first && w.onFail != nil {
		w.onFail(err)
	}
}

func (w *batchWriter) failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// overheadBytes reports sent frame bytes not attributable to any one task:
// batch headers, count prefixes and ctrl-tagged messages, so the connection
// total is exactly Σ task bytes + overhead.
func (w *batchWriter) overheadBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.overhead
}

// enqueue queues one tagged message for (possibly coalesced) sending. It
// returns quickly; transmission errors surface on later calls and at close.
// A non-nil owner is settled exactly once, when the message is flushed or
// discarded — unless enqueue itself returns an error, in which case the
// message was never queued.
func (w *batchWriter) enqueue(tm taggedMsg, owner *sessionTaskConn) error {
	return w.put(outMsg{tm: tm, owner: owner})
}

// enqueuePair is enqueue for two messages that go out in one frame, tm
// first: a link that drops or corrupts the frame loses both. The owner is
// settled once, for both.
func (w *batchWriter) enqueuePair(tm, then taggedMsg, owner *sessionTaskConn) error {
	return w.put(outMsg{tm: tm, then: then, paired: true, owner: owner})
}

func (w *batchWriter) put(m outMsg) error {
	if err := w.failed(); err != nil {
		return err
	}
	w.in <- m
	return nil
}

// close flushes queued messages, stops the writer, and reports any send
// error. No enqueue may be concurrent with or follow close.
func (w *batchWriter) close() error {
	close(w.in)
	<-w.done
	return w.failed()
}

// sessionConfig collects OpenSession options.
type sessionConfig struct {
	recvTimeout time.Duration
}

// SessionOption configures OpenSession.
type SessionOption interface {
	applySession(*sessionConfig)
}

type sessionRecvTimeoutOption time.Duration

func (o sessionRecvTimeoutOption) applySession(c *sessionConfig) {
	c.recvTimeout = time.Duration(o)
}

// WithSessionRecvTimeout arms a receive watchdog: whenever the session waits
// longer than d for the next frame, the connection is declared dead and
// closed, surfacing as ErrConnQuarantined on every in-flight attempt. This
// is how silently dropped frames on a lossy link become reconnects instead
// of hangs. d must comfortably exceed the participant's worst-case per-task
// compute time — a spurious trip costs a resume, never a wrong verdict. The
// default (0) disables the watchdog.
func WithSessionRecvTimeout(d time.Duration) SessionOption {
	return sessionRecvTimeoutOption(d)
}

// Session is a pipelined multi-task exchange owned by a supervisor: up to
// `window` tasks proceed concurrently over one connection, their messages
// tagged by task ID and coalesced into batch frames — the only frames a
// participant's Serve accepts.
//
// A Session must be the connection's only user while open. Close flushes
// and shuts the session down but leaves the connection open.
type Session struct {
	sup    *Supervisor
	conn   transport.Conn
	window int
	cfg    sessionConfig

	slots       chan struct{} // window permits; Close acquires all
	closing     chan struct{}
	closeOnce   sync.Once
	closeErr    error
	quarantined atomic.Bool
	writer      *batchWriter

	// mu guards the demultiplexer: per-task inboxes, the elected-puller
	// flag, the ctrl handler, the terminal error, receive-side overhead
	// accounting, the task-ID memory and the free list of audit kits.
	mu    sync.Mutex
	cond  *sync.Cond
	tasks map[uint64]*sessionTaskConn
	// used holds the IDs register refuses: every task in flight plus the
	// most recent maxVerdictTombstones finished ones, which finished keeps in
	// finishing order as a ring (finNext is its oldest entry once full).
	used         map[uint64]struct{}
	finished     []uint64
	finNext      int
	kits         []*auditKit
	ctrl         func(taggedMsg) error
	pulling      bool
	err          error
	recvOverhead int64
	// batch is the elected puller's decode scratch.
	batch []taggedMsg
}

// OpenSession starts a session on conn with the given in-flight window.
// Double-check sessions carry replica exchanges whose uploads are compared
// across connections; they are driven by SupervisorPool.RunTaskSource, and
// RunTask refuses them (a lone session has no other replicas to compare
// against).
func (s *Supervisor) OpenSession(conn transport.Conn, window int, opts ...SessionOption) (*Session, error) {
	if conn == nil {
		return nil, fmt.Errorf("%w: nil connection", ErrBadConfig)
	}
	if window < 1 {
		return nil, fmt.Errorf("%w: session window %d", ErrBadConfig, window)
	}
	var cfg sessionConfig
	for _, opt := range opts {
		opt.applySession(&cfg)
	}
	sess := &Session{
		sup:     s,
		conn:    conn,
		window:  window,
		cfg:     cfg,
		slots:   make(chan struct{}, window),
		closing: make(chan struct{}),
		tasks:   make(map[uint64]*sessionTaskConn),
		used:    make(map[uint64]struct{}),
	}
	sess.cond = sync.NewCond(&sess.mu)
	// A writer failure must poison the session, not just drain: tasks that
	// already enqueued a message would otherwise wait forever for a reply
	// to a frame that was never sent. Closing the connection unblocks the
	// elected puller (and the peer).
	sess.writer = newBatchWriter(conn, func(err error) {
		sess.fail(fmt.Errorf("grid: session send: %w", err))
		_ = conn.Close()
	})
	return sess, nil
}

// fail records the session's terminal error and wakes every waiter.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// sessionTaskConn is the virtual protoConn of one in-flight task: sends are
// tagged with the task ID and coalesced by the session writer; receives are
// demultiplexed by ID from the shared connection. It lives in the attempt's
// audit kit, which register reopens it from (open) on every session the
// attempt attaches to.
type sessionTaskConn struct {
	sess *Session
	id   uint64
	// inbox holds routed-but-unconsumed messages from index head on; both
	// guarded by sess.mu. Popping advances head instead of reslicing, and a
	// drained inbox rewinds to the front of its backing array, so routing
	// the task's next message appends in place instead of reallocating.
	inbox []transport.Message
	head  int
	// inboxBuf backs inbox until more than a task's usual messages (commit,
	// reports, proofs, ack) are queued at once.
	inboxBuf [4]transport.Message
	// sent counts this task's tagged bytes that actually entered the wire —
	// credited by the batch writer at flush time, not at enqueue, so frames
	// discarded by a quarantined writer never inflate it. recv is guarded by
	// sess.mu.
	sent     atomic.Int64
	recv     int64
	inflight sync.WaitGroup
}

// open starts c as task id's end of sess: an empty inbox and no bytes
// counted. Its in-flight sends are already zero — the attempt's last detach
// came after awaitSends — so nothing from the task it served before is left.
//
//gridlint:credit zeroes the byte counters a reused task connection starts from; detach folded them into the attempt
func (c *sessionTaskConn) open(sess *Session, id uint64) {
	c.sess, c.id = sess, id
	clear(c.inboxBuf[:])
	c.inbox, c.head = c.inboxBuf[:0], 0
	c.sent.Store(0)
	c.recv = 0
}

// Send implements protoConn. The message's bytes are credited when the
// writer flushes it; awaitSends synchronizes with that before the task's
// totals are read.
func (c *sessionTaskConn) Send(m transport.Message) error {
	c.inflight.Add(1)
	err := c.sess.writer.enqueue(taggedMsg{TaskID: c.id, Type: m.Type, Payload: m.Payload}, c)
	if err != nil {
		c.inflight.Done() // never queued; the writer will not settle it
	}
	return err
}

// SendPair implements protoConn: Send for two messages the writer puts in
// one frame, a first.
func (c *sessionTaskConn) SendPair(a, b transport.Message) error {
	c.inflight.Add(1)
	err := c.sess.writer.enqueuePair(taggedMsg{TaskID: c.id, Type: a.Type, Payload: a.Payload},
		taggedMsg{TaskID: c.id, Type: b.Type, Payload: b.Payload}, c)
	if err != nil {
		c.inflight.Done() // never queued; the writer will not settle it
	}
	return err
}

// awaitSends blocks until every message this task enqueued has been
// flushed or discarded, making c.sent final. The writer always drains —
// even after a failure — so this cannot wedge.
func (c *sessionTaskConn) awaitSends() { c.inflight.Wait() }

// Recv implements protoConn.
func (c *sessionTaskConn) Recv() (transport.Message, error) {
	return c.sess.recvFor(c)
}

// recvFor returns the next message routed to c. The session has no
// dedicated reader goroutine: among the task goroutines blocked here, one
// is elected to pull from the connection and route what arrives; the rest
// wait on the condition variable. A session error wakes and fails everyone.
//
//gridlint:credit the elected puller attributes receive-side deltas as frames arrive
func (s *Session) recvFor(c *sessionTaskConn) (transport.Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if c.head < len(c.inbox) {
			m := c.inbox[c.head]
			c.inbox[c.head] = transport.Message{} // do not pin the payload
			c.head++
			if c.head == len(c.inbox) {
				c.inbox, c.head = c.inbox[:0], 0
			}
			return m, nil
		}
		if s.err != nil {
			return transport.Message{}, s.err
		}
		if !s.pulling {
			s.pullOnceLocked(s.cfg.recvTimeout)
			continue
		}
		s.cond.Wait()
	}
}

// pullOnceLocked performs one elected pull: release the lock, receive one
// frame (with a watchdog when timeout > 0), re-acquire, route, record any
// terminal error, and wake the waiters. Caller holds s.mu and has observed
// s.pulling == false.
//
//gridlint:credit bytes that arrive without yielding a routable frame (CRC-rejected damage) are credited to session overhead at the single receive site
func (s *Session) pullOnceLocked(timeout time.Duration) {
	s.pulling = true
	s.mu.Unlock()
	// The watchdog converts a silently dropped frame (the peer will
	// never answer) into a dead connection the quarantine machinery
	// already handles. Closing the connection is the only way to
	// unblock a pending Recv on every transport.
	var watchdog *time.Timer
	if timeout > 0 {
		watchdog = time.AfterFunc(timeout, func() { _ = s.conn.Close() })
	}
	// Receive-side attribution works on the connection counter's
	// delta rather than the frame header math, so bytes that arrive
	// but never yield a routable frame — a corrupt frame the
	// transport CRC rejected — still land in session overhead and
	// the counters stay exact.
	before := s.conn.Stats().BytesRecv()
	frame, err := s.conn.Recv()
	if watchdog != nil {
		watchdog.Stop()
	}
	s.mu.Lock()
	s.pulling = false
	arrived := s.conn.Stats().BytesRecv() - before
	if err != nil {
		s.recvOverhead += arrived
		err = fmt.Errorf("grid: session recv: %w", err)
	} else {
		err = s.routeLocked(frame, arrived)
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
}

// ctrlPullTimeout bounds each pull of a drain-time ctrl exchange (the
// checkpoint barrier): with no task Recv pending, nobody else would notice
// a peer that went silent, so the ctrl puller carries its own watchdog when
// the session has none. A variable so tests can shorten it.
var ctrlPullTimeout = 30 * time.Second

// pullCtrl drives the session's receive loop outside any task exchange
// until stop() reports true. Used at the stream drain barrier, where ctrl
// replies (checkpoint acks) are expected but no task is in flight to elect
// a puller. stop is evaluated with s.mu held; a session error (including
// one raised by routing the ctrl reply itself) is returned.
func (s *Session) pullCtrl(stop func() bool) error {
	timeout := s.cfg.recvTimeout
	if timeout <= 0 {
		timeout = ctrlPullTimeout
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if stop() {
			return nil
		}
		if s.err != nil {
			return s.err
		}
		if !s.pulling {
			s.pullOnceLocked(timeout)
			continue
		}
		s.cond.Wait()
	}
}

// routeLocked demultiplexes one incoming batch frame into per-task inboxes
// and attributes its bytes: tagged sub-messages to their tasks, the rest of
// the arrived bytes (framing, and everything in frames that cannot be
// routed) to session overhead, so receive-side accounting stays exact even
// when the connection is about to be quarantined. arrived is the connection
// counter's delta for this frame. Caller holds s.mu.
//
//gridlint:credit receive-side attribution: tagged bytes to tasks, the remainder to overhead
func (s *Session) routeLocked(frame transport.Message, arrived int64) error {
	if frame.Type != msgBatch {
		s.recvOverhead += arrived
		return fmt.Errorf("%w: session got frame type %d, want batch", ErrUnexpectedMessage, frame.Type)
	}
	msgs, err := decodeBatch(s.batch[:0], frame.Payload)
	// The frame buffer is dead on both outcomes (transport/pool.go has the
	// ownership rule). The arrived bytes were credited from the connection
	// counter before this point; recycling never touches accounting.
	transport.RecyclePayload(frame.Payload)
	if err != nil {
		s.recvOverhead += arrived
		return err
	}
	defer func() {
		clear(msgs) // the inboxes own the payloads now
		s.batch = msgs[:0]
	}()
	var tagged int64
	for _, tm := range msgs {
		if tm.TaskID == ctrlTaskID {
			// Session-scoped control traffic (window commits, checkpoint
			// acks): handled inline so ctrl messages keep their frame order
			// relative to task messages, with the bytes staying in session
			// overhead — ctrl messages belong to no task.
			if s.ctrl == nil {
				s.recvOverhead += arrived - tagged
				return fmt.Errorf("%w: ctrl message type %d on a session without a ctrl handler",
					ErrUnexpectedMessage, tm.Type)
			}
			if err := s.ctrl(tm); err != nil {
				s.recvOverhead += arrived - tagged
				return err
			}
			continue
		}
		tc, ok := s.tasks[tm.TaskID]
		if !ok {
			s.recvOverhead += arrived - tagged
			return fmt.Errorf("%w: message type %d for unknown task %d",
				ErrUnexpectedMessage, tm.Type, tm.TaskID)
		}
		tc.inbox = append(tc.inbox, transport.Message{Type: tm.Type, Payload: tm.Payload})
		tc.recv += tm.wireSize()
		tagged += tm.wireSize()
	}
	s.recvOverhead += arrived - tagged
	return nil
}

// setCtrl installs the handler for ctrl-tagged messages (TaskID ==
// ctrlTaskID). The handler runs on the elected puller with s.mu held and
// must not block or call back into the session; an error it returns is
// terminal for the session.
func (s *Session) setCtrl(fn func(taggedMsg) error) {
	s.mu.Lock()
	s.ctrl = fn
	s.mu.Unlock()
}

// sendCtrl queues one ctrl-tagged message. Its bytes land in the writer's
// overhead ledger at flush time — ctrl traffic belongs to no task.
func (s *Session) sendCtrl(typ uint8, payload []byte) error {
	return s.writer.enqueue(taggedMsg{TaskID: ctrlTaskID, Type: typ, Payload: payload}, nil)
}

// register adds at's task to the demultiplexer through the task connection
// of its audit kit, lending the attempt a kit first if it does not travel
// with one. Task IDs are the wire-level
// routing key and must not return while the participant may still hold the
// task that last used them: it tears its side of a finished task down
// asynchronously, so immediate reuse would race it. That race spans one
// participant teardown — the span the participant's verdict tombstones cover
// for the same reason — so the session remembers the IDs in flight plus the
// most recent maxVerdictTombstones finished ones (one constant for both
// ends) and forgets older ones: an unbounded stream over one long-lived
// session keeps a bounded memory, and an ID thousands of tasks old is free
// again.
func (s *Session) register(at *taskAttempt) (*sessionTaskConn, error) {
	taskID := at.task.ID
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.err; err != nil {
		return nil, err
	}
	if _, dup := s.used[taskID]; dup {
		return nil, fmt.Errorf("%w: task %d already run on this session (IDs must be unique per session)", ErrBadConfig, taskID)
	}
	s.used[taskID] = struct{}{}
	if at.pt.kit == nil {
		if last := len(s.kits) - 1; last >= 0 {
			at.pt.kit, s.kits = s.kits[last], s.kits[:last]
		} else {
			at.pt.kit = new(auditKit)
		}
		at.pt.tr.buf = at.pt.kit.evalBuf
	}
	c := &at.pt.kit.conn
	c.open(s, taskID)
	s.tasks[taskID] = c
	return c, nil
}

// detach folds the connection's flushed byte totals for c's task into the
// attempt and takes the task out of the demultiplexer; err is how the
// exchange ended. The ID joins the finished ring, evicting the oldest. An
// attempt that will run again — ErrConnQuarantined: the connection died
// under it — keeps its audit kit; any other ending returns the kit to this
// session's list (auditKit has the rule).
//
//gridlint:credit folds the flushed per-connection totals into the attempt after awaitSends
func (s *Session) detach(c *sessionTaskConn, at *taskAttempt, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at.bytesSent += c.sent.Load()
	at.bytesRecv += c.recv
	delete(s.tasks, c.id)
	clear(c.inbox) // what a failed exchange left unread
	if len(s.finished) < maxVerdictTombstones {
		s.finished = append(s.finished, c.id)
	} else {
		delete(s.used, s.finished[s.finNext])
		s.finished[s.finNext] = c.id
		s.finNext = (s.finNext + 1) % len(s.finished)
	}
	if kit := at.pt.kit; kit != nil && !errors.Is(err, ErrConnQuarantined) {
		at.pt.returnKit()
		if scribbleKit != nil {
			scribbleKit(nil, kit)
		}
		s.kits = append(s.kits, kit)
	}
}

// RunTask runs one task through the session, from assignment to verdict.
// It is safe for concurrent use; at most `window` calls proceed at once and
// further callers block for a slot. Task IDs must be unique across the
// session's lifetime. Protocol and transport failures are returned as
// errors; a detected cheat is not an error — it lands in the outcome verdict,
// and equal seeds and task IDs produce identical verdicts however the
// exchanges interleave.
//
// The outcome's byte counts cover the task's tagged messages on the wire;
// shared batch framing is reported by OverheadBytes. A failed RunTask is
// terminal for the task; reconnect-and-resume is SupervisorPool.RunTaskSource's
// job, which drives RunAttempt itself.
func (sess *Session) RunTask(task Task) (*TaskOutcome, error) {
	if sess.sup.cfg.Spec.Kind == SchemeDoubleCheck {
		return nil, fmt.Errorf("%w: double-check compares replicas across connections; use SupervisorPool.RunTaskSource", ErrBadConfig)
	}
	at, err := sess.sup.NewAttempt(task)
	if err != nil {
		return nil, err
	}
	outcome, err := sess.RunAttempt(at)
	if err != nil {
		at.settle(sess.sup)
		return nil, fmt.Errorf("grid: session task %d: %w", task.ID, err)
	}
	return outcome, nil
}

// RunAttempt attaches a prepared task attempt to this session and drives its
// exchange as far as the connection allows. On success the outcome carries
// the attempt's cumulative byte totals across every connection it touched.
// An error wrapping ErrConnQuarantined means the connection died under the
// task: the attempt keeps its protocol state and may be re-attached to a
// session on a replacement connection (to the same participant once any
// reply was received — see taskAttempt.started). Any other error is a
// protocol-level failure and terminal.
func (sess *Session) RunAttempt(at *taskAttempt) (*TaskOutcome, error) {
	select {
	case sess.slots <- struct{}{}:
	case <-sess.closing:
		if sess.quarantined.Load() {
			// The session was torn down by a transport fault while this
			// attempt was on its way in; the attempt is untouched and can
			// attach to the replacement session instead.
			return nil, fmt.Errorf("%w: session closed by quarantine", ErrConnQuarantined)
		}
		return nil, fmt.Errorf("%w: session closed", ErrBadConfig)
	}
	defer func() { <-sess.slots }()

	c, err := sess.register(at)
	if err != nil {
		return nil, quarantineWrap(err)
	}

	err = sess.sup.runExchange(c, &at.pt)
	// Settle the attempt's byte totals only after the writer has flushed or
	// discarded everything this task enqueued — sent bytes mean wire bytes.
	c.awaitSends()
	if err != nil {
		err = quarantineWrap(err)
	}
	sess.detach(c, at, err)
	if err != nil {
		return nil, err
	}
	at.pt.outcome.BytesSent = at.bytesSent
	at.pt.outcome.BytesRecv = at.bytesRecv
	at.settle(sess.sup)
	return at.pt.outcome, nil
}

// quarantineWrap classifies an exchange failure: transport-level faults —
// closed or timed-out connections, EOF, integrity-check failures — leave the
// attempt resumable and are wrapped in ErrConnQuarantined; anything else
// (malformed payloads, protocol violations) passes through as a terminal
// error.
func quarantineWrap(err error) error {
	if errors.Is(err, ErrConnQuarantined) {
		return err // already classified
	}
	if errors.Is(err, transport.ErrClosed) || errors.Is(err, transport.ErrTimeout) ||
		errors.Is(err, io.EOF) || errors.Is(err, ErrFrameCorrupt) ||
		errors.Is(err, transport.ErrFrameCorrupt) {
		return fmt.Errorf("%w: %w", ErrConnQuarantined, err)
	}
	return err
}

// OverheadBytes reports session framing traffic not attributed to any task:
// batch frame headers and count prefixes, per direction. Once the session
// is closed, conn.Stats().BytesSent() == Σ outcome.BytesSent + sent exactly
// (and likewise for receive) when the session was the connection's only
// user.
func (sess *Session) OverheadBytes() (sent, recv int64) {
	sess.mu.Lock()
	recv = sess.recvOverhead
	sess.mu.Unlock()
	return sess.writer.overheadBytes(), recv
}

// abandon closes a session whose connection died: late RunAttempt arrivals
// observe a quarantine (resumable) instead of a configuration error, and the
// writer's failure to flush is expected rather than reported.
func (sess *Session) abandon() {
	sess.quarantined.Store(true)
	_ = sess.Close()
}

// Close waits for in-flight tasks, flushes pending frames, and shuts the
// session down. The connection stays open — the participant's session loop
// ends when the connection closes. Close reports any writer send error.
func (sess *Session) Close() error {
	sess.closeOnce.Do(func() {
		close(sess.closing)
		// Acquiring every window slot proves no RunTask is in flight, so
		// closing the writer cannot race an enqueue.
		for i := 0; i < sess.window; i++ {
			sess.slots <- struct{}{}
		}
		sess.closeErr = sess.writer.close()
	})
	return sess.closeErr
}
