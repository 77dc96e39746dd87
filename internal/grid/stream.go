package grid

// Work-stealing stream scheduler with revocable claims and
// reconnect-and-resume.
//
// PR 2's scheduler parked every worker on one task channel and re-checked
// eligibility at claim time; a connection retired between that re-check and
// the first send could still start a task, and any transport error killed
// the whole run. This scheduler makes both first-class:
//
//   - Claims are leases. A lease is claimed under the dispatcher lock,
//     started under the same lock (where retirement is re-checked), and
//     can be revoked in between — retirement recalls every ticket that has
//     not begun an exchange, placed or leased, and reroutes it, so no
//     exchange ever starts on a connection retired before the start.
//
//   - Each connection lives in a connSlot that owns the current
//     (connection, session) generation. A quarantined session returns its
//     in-flight attempts to the dispatcher pinned to the slot, the first
//     failing worker redials, and the attempts resume mid-protocol on the
//     replacement session. A slot that exhausts its reconnect budget is
//     dead: its pinned tickets restart from scratch (fresh attempt, fresh
//     per-task randomness — identical to a clean first run) on surviving
//     connections; a double-check replica cannot move and fails the run.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"uncheatgrid/internal/transport"
)

// defaultMaxReconnects bounds replacement connections per slot when
// WithRedial is set without WithMaxReconnects.
const defaultMaxReconnects = 4

// ticket is the dispatcher's unit of work: a task, plus — once an attempt
// exists — its resumable supervisor state. pin names the slot the ticket
// waits on: placement put it there (pinned or replicated streams), or its
// attempt is mid-protocol with that slot's participant. replica is the
// ticket's position in its double-check group (0 unreplicated).
type ticket struct {
	task    Task
	at      *taskAttempt
	pin     *connSlot
	replica int
}

// bound reports whether the ticket has to stay on its slot: an attempt
// exists and was parked there, so the slot's participant may hold protocol
// state for it. A ticket that placement merely put on a slot is not bound —
// nothing has been sent — and retiring the slot moves it elsewhere (unless
// it is a replica; see rerouteLocked).
func (t ticket) bound() bool { return t.pin != nil && t.at != nil }

// Lease lifecycle (all transitions under dispatcher.mu).
const (
	leaseClaimed int32 = iota
	leaseStarted
	leaseRevoked
)

// lease is one worker's revocable hold on a ticket. The dispatcher recycles
// it (freeLocked) once its worker is done with it: when start revokes it,
// or when complete or parkForResume releases it. A worker reads nothing of a
// lease after handing it to one of those three.
type lease struct {
	ticket
	slot  *connSlot
	state int32
}

// connSlot owns the live (connection, session) pair of one participant link
// and coordinates its replacement after a quarantine. Scheduling state for
// the slot (retirement, pinned tickets) lives in the dispatcher; this struct
// only manages the link itself.
type connSlot struct {
	mu           sync.Mutex
	cond         *sync.Cond
	conn         transport.Conn
	sess         *Session
	gen          int
	reconnecting bool
	dead         bool
	reconnects   int

	// ledger verifies this link's rolling window commits (WithWindowSettle);
	// ctrlAck latches the participant's checkpoint acknowledgement during a
	// drain barrier. Both belong to the slot, not the session — they survive
	// reconnects.
	ledger  *WindowLedger
	ctrlAck atomic.Bool
}

func newConnSlot(conn transport.Conn, sess *Session) *connSlot {
	sl := &connSlot{conn: conn, sess: sess}
	sl.cond = sync.NewCond(&sl.mu)
	return sl
}

// installCtrl wires the slot's session-scoped ctrl demux onto sess: window
// commits feed the slot's ledger, checkpoint acks latch the drain barrier.
// Installed on every session generation the slot owns, so commits keep
// flowing across reconnects.
func (sl *connSlot) installCtrl(sess *Session) {
	sess.setCtrl(func(tm taggedMsg) error {
		switch tm.Type {
		case msgWindowCommit:
			if sl.ledger == nil {
				return fmt.Errorf("%w: window commit on a stream without window settling", ErrUnexpectedMessage)
			}
			return sl.ledger.onCommit(tm.Payload)
		case msgCheckpointAck:
			if len(tm.Payload) != 0 {
				return fmt.Errorf("%w: checkpoint ack carries %d bytes", ErrBadPayload, len(tm.Payload))
			}
			sl.ctrlAck.Store(true)
			return nil
		default:
			return fmt.Errorf("%w: ctrl message type %d", ErrUnexpectedMessage, tm.Type)
		}
	})
}

// current returns the live session, its generation, and its connection.
func (sl *connSlot) current() (*Session, int, transport.Conn) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.sess, sl.gen, sl.conn
}

// dispatcher is the shared scheduling state: pending (unpinned) tickets,
// per-slot pinned tickets, and the outstanding leases. Everything — claims,
// starts, placements, retirements, revocations — serializes on mu, which is
// what makes retire-before-start a real happens-before edge.
type dispatcher struct {
	mu   sync.Mutex
	cond *sync.Cond

	pending []ticket
	pinned  map[*connSlot][]ticket
	leases  map[*lease]struct{}
	// free holds released leases for the next claims.
	free []*lease
	// retired slots take no fresh work; dead ones (a subset) have lost their
	// link for good.
	retired map[*connSlot]bool
	dead    map[*connSlot]bool
	// source feeds tickets lazily: refillLocked materializes at most
	// highWater tickets ahead of execution, consuming source at sourceNext
	// until it reports exhaustion (sourceDone).
	source     TaskSource
	sourceNext uint64
	sourceDone bool
	highWater  int
	// Placement. A work-stealing stream queues every drawn task on pending.
	// A pinned or replicated one (replicas > 0) places each ticket on a slot
	// with one persistent round-robin cursor over allSlots — see placeLocked
	// (chosen is its scratch). retireOnReject makes a rejecting outcome
	// retire its slot and holds the cursor at a slot that already has window
	// undecided tickets.
	pinnedRR       bool
	replicas       int
	cursor         uint64
	chosen         []*connSlot
	window         int
	retireOnReject bool
	// votes holds the settled replicas of every double-check group still
	// waiting for a sibling, by task ID (see vote).
	votes map[uint64]*replicaVote
	// slots maps every connection a slot has owned (original and
	// replacements) back to it, for Retire; allSlots lists every slot in
	// connection order.
	slots    map[transport.Conn]*connSlot
	allSlots []*connSlot

	pool      *SupervisorPool
	cancelled bool
	err       error
	cancel    context.CancelFunc
}

func newDispatcher(pool *SupervisorPool, cfg *streamConfig, source TaskSource, window int, cancel context.CancelFunc) *dispatcher {
	d := &dispatcher{
		pinned:         make(map[*connSlot][]ticket),
		leases:         make(map[*lease]struct{}),
		retired:        make(map[*connSlot]bool),
		dead:           make(map[*connSlot]bool),
		slots:          make(map[transport.Conn]*connSlot),
		votes:          make(map[uint64]*replicaVote),
		source:         source,
		sourceNext:     cfg.sourceBase,
		highWater:      cfg.highWater,
		pinnedRR:       cfg.pinned,
		replicas:       cfg.replicas,
		cursor:         cfg.sourceBase * uint64(max(1, cfg.replicas)),
		window:         window,
		retireOnReject: cfg.retireOnReject,
		pool:           pool,
		cancel:         cancel,
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// abandonAttempt closes the accounting of an attempt that will never reach
// an outcome: settle its verification evals into the supervisor totals and
// credit the tagged bytes that really crossed the wire on its (now dead)
// connections to the pool counters — the only place that traffic can still
// be reported. Settling is idempotent, so an attempt abandoned twice is
// counted once.
//
//gridlint:credit last-resort crediting for traffic whose attempt cannot report an outcome
func (d *dispatcher) abandonAttempt(at *taskAttempt) {
	if at == nil || at.settled {
		return
	}
	at.settle(d.pool.sup)
	d.pool.bytesSent.Add(at.bytesSent)
	d.pool.bytesRecv.Add(at.bytesRecv)
}

// settleOutstanding abandons every ticket left behind at teardown — pending
// or pinned work stranded by cancellation or mass retirement — so eval and
// byte accounting stay complete even on runs that do not finish their task
// list.
func (d *dispatcher) settleOutstanding() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.pending {
		d.abandonAttempt(t.at)
	}
	for _, ts := range d.pinned {
		for _, t := range ts {
			d.abandonAttempt(t.at)
		}
	}
}

// fail records the run's first error and cancels everything.
func (d *dispatcher) fail(err error) {
	d.mu.Lock()
	d.failLocked(err)
	d.mu.Unlock()
}

func (d *dispatcher) failLocked(err error) {
	if d.err == nil {
		d.err = err
	}
	d.cancelled = true
	d.cond.Broadcast()
	d.cancel()
}

// stop ends scheduling without an error (context cancelled upstream).
func (d *dispatcher) stop() {
	d.mu.Lock()
	d.cancelled = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

// firstErr returns the recorded failure, if any.
func (d *dispatcher) firstErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

func (d *dispatcher) registerConn(conn transport.Conn, sl *connSlot) {
	d.mu.Lock()
	d.slots[conn] = sl
	d.mu.Unlock()
}

// retireConn implements TaskStream.Retire.
func (d *dispatcher) retireConn(conn transport.Conn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if sl, ok := d.slots[conn]; ok {
		d.retireLocked(sl)
	}
}

// retireLocked stops fresh work on the slot and recalls every ticket on it
// that has not begun an exchange — claimed-but-unstarted leases and tickets
// placement queued there — rerouting them to other connections. Bound
// tickets (attempts parked there mid-protocol), replicas and started leases
// are left to finish.
func (d *dispatcher) retireLocked(sl *connSlot) {
	if d.retired[sl] {
		return
	}
	d.retired[sl] = true
	for l := range d.leases {
		if l.slot == sl && l.state == leaseClaimed && !l.bound() && d.rerouteLocked(l.ticket) {
			l.state = leaseRevoked
			delete(d.leases, l)
		}
	}
	// Rerouting never queues onto sl (it is retired now), so filtering its
	// queue in place is safe.
	kept := d.pinned[sl][:0]
	for _, t := range d.pinned[sl] {
		if t.bound() || !d.rerouteLocked(t) {
			kept = append(kept, t)
		}
	}
	d.pinned[sl] = kept
	d.cond.Broadcast()
}

// rerouteLocked moves an unbound ticket off a retired slot to the shared
// queue, where the next live connection with a free worker takes it. It
// reports false for a replica, which runs where placement put it: only
// placement knows which connections its siblings hold.
func (d *dispatcher) rerouteLocked(t ticket) bool {
	if d.replicas > 0 {
		return false
	}
	t.pin = nil
	d.pending = append(d.pending, t)
	return true
}

// markDead declares the slot's link permanently gone: retire it and restart
// everything still bound to it — queued pinned tickets and claimed pinned
// leases — from scratch on the pending queue (a replica there fails the
// run instead; see restartTicketLocked).
func (d *dispatcher) markDead(sl *connSlot) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dead[sl] = true
	d.retireLocked(sl)
	for l := range d.leases {
		if l.slot == sl && l.state == leaseClaimed {
			l.state = leaseRevoked
			delete(d.leases, l)
			d.restartTicketLocked(l.ticket)
		}
	}
	for _, t := range d.pinned[sl] {
		d.restartTicketLocked(t)
	}
	delete(d.pinned, sl)
	d.cond.Broadcast()
}

// restartTicketLocked abandons a ticket's attempt (settling its eval and
// byte accounting) and requeues the bare task. The fresh attempt created on
// the next claim re-derives its randomness from the task seed, so the
// retried verdict is identical to a clean first run on whichever participant
// picks it up. A replica cannot move — its group's other members hold the
// connections placement chose for them — so its loss fails the run, unless
// the run is already stopping.
func (d *dispatcher) restartTicketLocked(t ticket) {
	d.abandonAttempt(t.at)
	switch {
	case d.replicas == 0:
		d.pending = append(d.pending, ticket{task: t.task})
	case !d.cancelled:
		d.failLocked(fmt.Errorf("%w: task %d replica %d", ErrReplicaLost, t.task.ID, t.replica))
	}
}

// claim blocks until the slot has work: its own pinned tickets, then the
// shared pending queue (both topped up from the task source). It returns
// false when the worker should exit — run cancelled, slot retired with no
// pinned work left, or all work globally drained.
func (d *dispatcher) claim(sl *connSlot) (*lease, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.cancelled {
			return nil, false
		}
		if ts := d.pinned[sl]; len(ts) > 0 {
			t := ts[0]
			ts[0] = ticket{} // do not pin the attempt
			d.pinned[sl] = ts[1:]
			return d.leaseLocked(t, sl), true
		}
		if d.retired[sl] {
			return nil, false
		}
		if d.refillLocked() {
			continue // the refill may have placed work on this very slot
		}
		if len(d.pending) > 0 {
			t := d.pending[0]
			d.pending = d.pending[1:]
			return d.leaseLocked(t, sl), true
		}
		if d.sourceDone && len(d.leases) == 0 && d.pinnedEmptyLocked() {
			return nil, false
		}
		d.cond.Wait()
	}
}

// refillLocked tops the scheduler up from the task source: tickets are
// materialized until highWater of them are outstanding (queued, pinned, or
// leased), so an unbounded stream holds a bounded working set. Reports
// whether any ticket was added; waiters are woken so every slot sees the
// new work.
func (d *dispatcher) refillLocked() bool {
	if d.sourceDone {
		return false
	}
	outstanding := len(d.pending) + len(d.leases)
	for _, ts := range d.pinned {
		outstanding += len(ts)
	}
	added := false
	for outstanding < d.highWater {
		task, ok := d.source(d.sourceNext)
		if !ok {
			d.sourceDone = true
			break
		}
		n := d.placeLocked(task)
		if n == 0 {
			break
		}
		d.sourceNext++
		outstanding += n
		added = true
	}
	if added {
		d.cond.Broadcast()
	}
	return added
}

// placeLocked turns one drawn task into tickets and reports how many: one
// on the shared queue for a work-stealing stream, otherwise one per replica
// (one for an unreplicated pinned stream), each placed on the next slot the
// round-robin cursor reaches that is not retired and — within a group —
// not already chosen. The cursor persists across tasks and, until a slot is
// retired, advances one slot per ticket: task i of an unreplicated stream
// lands on slot i mod len(conns), and replica r of task t on slot
// (t·R + r) mod len(conns), pairwise distinct because R ≤ len(conns).
//
// It reports 0, placing nothing and leaving the cursor alone, in two cases.
// Under retireOnReject a chosen slot that already holds window undecided
// tickets makes placement wait: the slot's next verdict may retire it, and
// looking past it would pair tasks with participants by timing. With window
// 1 the pairing is then the strictly serial one — each task goes to the next
// participant not rejected by any earlier task. And when fewer eligible
// slots remain than the task needs, nothing can ever be placed again: the
// stream ends short (sourceDone), which callers see by counting outcomes.
func (d *dispatcher) placeLocked(task Task) int {
	if !d.pinnedRR && d.replicas == 0 {
		d.pending = append(d.pending, ticket{task: task})
		return 1
	}
	cursor := d.cursor
	chosen := d.chosen[:0]
	for range max(1, d.replicas) {
		sl := d.nextSlotLocked(&cursor, chosen)
		if !d.placeableLocked(sl) {
			return 0
		}
		chosen = append(chosen, sl)
	}
	d.cursor, d.chosen = cursor, chosen
	for r, sl := range chosen {
		d.pinned[sl] = append(d.pinned[sl], ticket{task: task, pin: sl, replica: r})
	}
	return len(chosen)
}

// nextSlotLocked advances *cursor to the next slot that is not retired and
// not one of chosen, looking at each slot at most once; nil when there is
// none.
func (d *dispatcher) nextSlotLocked(cursor *uint64, chosen []*connSlot) *connSlot {
	n := uint64(len(d.allSlots))
	for tries := uint64(0); tries < n; tries++ {
		cand := d.allSlots[*cursor%n]
		*cursor++
		if !d.retired[cand] && !slices.Contains(chosen, cand) {
			return cand
		}
	}
	return nil
}

// placeableLocked applies placeLocked's two refusals to a chosen slot.
func (d *dispatcher) placeableLocked(sl *connSlot) bool {
	if sl == nil {
		d.sourceDone = true
		return false
	}
	return !d.retireOnReject || d.loadLocked(sl) < d.window
}

// loadLocked counts the slot's undecided tickets: queued on it or leased to
// one of its workers.
func (d *dispatcher) loadLocked(sl *connSlot) int {
	n := len(d.pinned[sl])
	for l := range d.leases {
		if l.slot == sl {
			n++
		}
	}
	return n
}

func (d *dispatcher) pinnedEmptyLocked() bool {
	for _, ts := range d.pinned {
		if len(ts) > 0 {
			return false
		}
	}
	return true
}

func (d *dispatcher) leaseLocked(t ticket, sl *connSlot) *lease {
	var l *lease
	if last := len(d.free) - 1; last >= 0 {
		l, d.free = d.free[last], d.free[:last]
	} else {
		l = new(lease)
	}
	*l = lease{ticket: t, slot: sl, state: leaseClaimed}
	d.leases[l] = struct{}{}
	return l
}

// freeLocked takes back a lease its worker is done with.
func (d *dispatcher) freeLocked(l *lease) {
	*l = lease{}
	d.free = append(d.free, l)
}

// start transitions the lease to started, under the lock retirement takes.
// An unbound lease whose connection was retired between claim and this call
// is revoked here and its ticket rerouted — the recall that closes the
// claim/start race. Bound tickets pass: they are in-flight work finishing on
// the participant that holds their state.
func (d *dispatcher) start(l *lease) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l.state == leaseRevoked {
		d.freeLocked(l)
		return false
	}
	if d.cancelled || (!l.bound() && d.retired[l.slot] && d.rerouteLocked(l.ticket)) {
		delete(d.leases, l)
		d.freeLocked(l)
		d.cond.Broadcast()
		return false
	}
	l.state = leaseStarted
	return true
}

// complete releases a finished lease. rejected reports a rejecting verdict;
// under retireOnReject that retires the slot in the same critical section,
// so no ticket can be placed on it between the verdict and the retirement.
func (d *dispatcher) complete(l *lease, rejected bool) {
	d.mu.Lock()
	if rejected && d.retireOnReject {
		d.retireLocked(l.slot)
	}
	delete(d.leases, l)
	d.freeLocked(l)
	d.cond.Broadcast()
	d.mu.Unlock()
}

// parkForResume returns a quarantined lease's ticket to the scheduler: bound
// mid-protocol attempts and replicas pin to their slot (to resume on the
// replacement connection), other unbound tickets rejoin the shared queue
// for any connection, and tickets whose slot is already dead restart from
// scratch.
func (d *dispatcher) parkForResume(l *lease) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.leases, l)
	t, sl := l.ticket, l.slot
	d.freeLocked(l)
	stays := d.replicas > 0 || (t.at != nil && t.at.started())
	switch {
	case stays && d.dead[sl]:
		d.restartTicketLocked(t)
	case stays:
		t.pin = sl
		d.pinned[sl] = append(d.pinned[sl], t)
	default:
		t.pin = nil
		d.pending = append(d.pending, t)
	}
	d.cond.Broadcast()
}

// recover re-establishes the slot's link after generation gen died. The
// first worker in becomes the leader: it quarantines the old connection
// (closing it and banking the dead session's framing overhead), redials, and
// opens a replacement session; late arrivals wait for the outcome. It
// returns false when the slot is permanently dead.
//
//gridlint:credit banks the dead session's framing overhead before the slot moves on
func (sl *connSlot) recover(gen int, d *dispatcher, p *SupervisorPool, cfg *streamConfig, window int) bool {
	sl.mu.Lock()
	for {
		if sl.dead {
			sl.mu.Unlock()
			return false
		}
		if sl.gen > gen {
			sl.mu.Unlock()
			return true // another worker already replaced the link
		}
		if !sl.reconnecting {
			sl.reconnecting = true
			break
		}
		sl.cond.Wait()
	}
	oldConn, oldSess := sl.conn, sl.sess
	canRetry := cfg.redial != nil && sl.reconnects < cfg.maxReconnects
	sl.mu.Unlock()

	// Quarantine: the connection is gone either way, and the dead session's
	// shared framing overhead must survive into the pool counters.
	_ = oldConn.Close()
	oldSess.abandon()
	ovSent, ovRecv := oldSess.OverheadBytes()
	p.bytesSent.Add(ovSent)
	p.bytesRecv.Add(ovRecv)

	var newConn transport.Conn
	var newSess *Session
	if canRetry {
		if conn, err := cfg.redial(oldConn); err == nil && conn != nil {
			if sess, err := p.sup.OpenSession(conn, window, WithSessionRecvTimeout(cfg.recvTimeout)); err == nil {
				newConn, newSess = conn, sess
			} else {
				_ = conn.Close()
			}
		}
	}

	// Register before publishing: the moment the swap below makes newConn
	// visible through sl.current(), outcomes can carry it and
	// TaskStream.Retire(newConn) must already resolve to this slot.
	if newSess != nil {
		d.registerConn(newConn, sl)
	}

	sl.mu.Lock()
	sl.reconnecting = false
	if newSess == nil {
		sl.dead = true
		sl.cond.Broadcast()
		sl.mu.Unlock()
		d.markDead(sl)
		return false
	}
	sl.installCtrl(newSess)
	sl.conn, sl.sess = newConn, newSess
	sl.gen++
	sl.reconnects++
	sl.cond.Broadcast()
	sl.mu.Unlock()
	return true
}

// RunTaskSource verifies a task stream over pipelined sessions, and is the
// one way this package runs a task on a connection: every connection opens a
// session holding up to `window` concurrent task exchanges (window 1 is the
// paper's one-exchange-at-a-time dialogue), and tasks are drawn lazily from
// source under a bounded look-ahead (WithHighWater), so scheduler memory is
// O(high water + in-flight) regardless of stream length. A finite task list
// is a SliceTaskSource. Outcomes stream out as they complete.
//
// By default all sessions claim tasks from one shared queue — fast
// participants take more work instead of idling — so which connection runs
// which task is scheduling-dependent; the verdict of a given (task,
// connection) pair is not. WithPinnedPlacement fixes the pairing instead.
//
// Claims are revocable leases: a connection retired (TaskStream.Retire)
// between claiming a task and starting its exchange has the claim recalled
// and the task rerouted, so no exchange ever starts on a retired connection.
// With WithRedial, a transport fault quarantines the connection and its
// in-flight tasks resume mid-protocol on a replacement connection to the
// same participant — verdicts and the per-task randomness stream are
// unaffected, so a faulty run's verdicts are byte-identical to a clean run's
// with equal seeds. Tasks stranded on a dead slot restart from scratch
// elsewhere; work is only dropped, cleanly, when every connection is retired
// (callers detect the shortfall by counting outcomes). The pool's worker
// bound applies across sessions: at most `workers` exchanges execute at
// once. The first protocol-level error cancels the run and surfaces on
// TaskStream.Err.
//
// With the double-check scheme the stream runs replicated: every task fans
// out to WithReplicas(R) pairwise-distinct connections, placed round-robin
// over conns as tasks are drawn. Each replica is an ordinary upload exchange
// whose participant is sent a receipt; once a group's last replica settles,
// its uploads are compared once and the stream emits R outcomes, each
// carrying the majority's verdict on its replica, keyed by (Task.ID,
// Replica). A replica never leaves the connection it was placed on: Retire
// does not recall it, and one whose connection dies for good fails the run
// with ErrReplicaLost.
//
// With WithWindowSettle the run carries rolling window commitments, and
// with WithDrainCheckpoint it ends with a durable checkpoint barrier —
// together the machinery behind kill-and-restart long-horizon runs.
func (p *SupervisorPool) RunTaskSource(ctx context.Context, conns []transport.Conn, source TaskSource, window int, opts ...StreamOption) (*TaskStream, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("%w: no connections", ErrBadConfig)
	}
	if source == nil {
		return nil, fmt.Errorf("%w: nil task source", ErrBadConfig)
	}
	cfg := streamConfig{maxReconnects: defaultMaxReconnects}
	for _, opt := range opts {
		opt.applyStream(&cfg)
	}
	if err := cfg.resolveReplicas(p.sup.cfg.Spec.Kind, conns); err != nil {
		return nil, err
	}
	if cfg.highWater <= 0 {
		cfg.highWater = 2 * window * len(conns)
	}

	ctx, cancel := context.WithCancel(ctx)
	d := newDispatcher(p, &cfg, source, window, cancel)
	slots, err := p.openStreamSlots(d, conns, window, &cfg)
	if err != nil {
		cancel()
		return nil, err
	}
	return p.launchStream(ctx, cancel, d, &cfg, slots, window), nil
}

// resolveReplicas settles the double-check group size (default 2) and checks
// that the scheme, the group size and the connections fit together.
func (c *streamConfig) resolveReplicas(kind SchemeKind, conns []transport.Conn) error {
	replicated := kind == SchemeDoubleCheck
	switch {
	case !replicated && c.replicas != 0:
		return fmt.Errorf("%w: WithReplicas requires the double-check scheme", ErrBadConfig)
	case !replicated:
		return nil
	case c.replicas == 0:
		c.replicas = 2
	case c.replicas < 2:
		return fmt.Errorf("%w: double-check needs >= 2 replicas, got %d", ErrBadConfig, c.replicas)
	}
	if len(conns) < c.replicas {
		return fmt.Errorf("%w: %d replicas need as many distinct connections, got %d",
			ErrBadConfig, c.replicas, len(conns))
	}
	return nil
}

// openStreamSlots opens one pipelined session per connection and wraps each
// in a registered connSlot, attaching window ledgers (WithWindowSettle) and
// the ctrl demux. On error every session already opened is closed.
func (p *SupervisorPool) openStreamSlots(d *dispatcher, conns []transport.Conn, window int, cfg *streamConfig) ([]*connSlot, error) {
	if cfg.ledgers != nil && len(cfg.ledgers) != len(conns) {
		return nil, fmt.Errorf("%w: %d window ledgers for %d connections", ErrBadConfig, len(cfg.ledgers), len(conns))
	}
	slots := make([]*connSlot, len(conns))
	for i, conn := range conns {
		sess, err := p.sup.OpenSession(conn, window, WithSessionRecvTimeout(cfg.recvTimeout))
		if err != nil {
			for _, sl := range slots[:i] {
				_ = sl.sess.Close()
			}
			return nil, err
		}
		slots[i] = newConnSlot(conn, sess)
		if cfg.ledgers != nil {
			slots[i].ledger = cfg.ledgers[i]
		}
		slots[i].installCtrl(sess)
		d.registerConn(conn, slots[i])
	}
	d.allSlots = slots
	return slots, nil
}

// launchStream starts the shared machinery of a streaming run: the
// cancellation watcher, the per-slot exchange workers, and the finisher
// that drains, optionally checkpoints, closes the sessions, and publishes
// the terminal error.
//
//gridlint:credit teardown folds each surviving session's framing overhead into the pool totals
func (p *SupervisorPool) launchStream(ctx context.Context, cancel context.CancelFunc, d *dispatcher, cfg *streamConfig, slots []*connSlot, window int) *TaskStream {
	stream := &TaskStream{
		outcomes: make(chan StreamedOutcome),
		done:     make(chan struct{}),
		d:        d,
	}

	// Wake parked workers when the caller cancels. A context cancelled
	// before the run started stops the dispatcher here, before any worker
	// can claim a task.
	if ctx.Err() != nil {
		d.stop()
	}
	go func() {
		<-ctx.Done()
		d.stop()
	}()

	// The pool's worker bound applies across all sessions: they hold up to
	// `window` claims each, but at most p.workers exchanges execute at once.
	sem := make(chan struct{}, p.workers)

	var workers sync.WaitGroup
	for _, sl := range slots {
		sl := sl
		for w := 0; w < window; w++ {
			workers.Add(1)
			go func() {
				defer workers.Done()
				p.streamWorker(ctx, d, sl, cfg, window, sem, stream)
			}()
		}
	}

	workersDone := make(chan struct{})
	go func() {
		workers.Wait()
		close(workersDone)
	}()

	// Finisher: settle stranded work, run the drain checkpoint barrier if
	// one was requested, close the surviving sessions (flushing their
	// writers) and bank their framing overhead — dead sessions were banked
	// at quarantine — then publish the terminal error and close the stream.
	go func() {
		<-workersDone
		d.settleOutstanding()
		var closeErr error
		if cfg.doDrainCkpt && d.firstErr() == nil && ctx.Err() == nil {
			if err := checkpointSlots(slots, cfg.drainCkpt); err != nil {
				closeErr = fmt.Errorf("grid: drain checkpoint: %w", err)
			}
		}
		for _, sl := range slots {
			sl.mu.Lock()
			dead, sess := sl.dead, sl.sess
			sl.mu.Unlock()
			if dead {
				continue
			}
			if err := sess.Close(); err != nil && closeErr == nil {
				closeErr = fmt.Errorf("grid: session close: %w", err)
			}
			ovSent, ovRecv := sess.OverheadBytes()
			p.bytesSent.Add(ovSent)
			p.bytesRecv.Add(ovRecv)
		}
		cancel()
		d.mu.Lock()
		if d.err == nil && closeErr != nil {
			d.err = closeErr
		}
		stream.err = d.err
		d.mu.Unlock()
		close(stream.outcomes)
		close(stream.done)
	}()

	return stream
}

// checkpointSlots runs the drain-time checkpoint barrier: each live link is
// asked to persist its durable state (msgCheckpoint) and the barrier holds
// until the participant acknowledges. Links are visited serially — the
// barrier runs once per segment, its cost is a round trip per link.
func checkpointSlots(slots []*connSlot, seq uint64) error {
	payload := encodeCheckpoint(checkpointMsg{Seq: seq})
	for _, sl := range slots {
		sl.mu.Lock()
		dead, sess := sl.dead, sl.sess
		sl.mu.Unlock()
		if dead {
			continue
		}
		sl.ctrlAck.Store(false)
		if err := sess.sendCtrl(msgCheckpoint, payload); err != nil {
			return err
		}
		if err := sess.pullCtrl(func() bool { return sl.ctrlAck.Load() }); err != nil {
			return err
		}
	}
	return nil
}

// streamWorker is one of a slot's `window` exchange drivers: claim, start
// (or yield to a revocation), run the attempt, and either stream the
// outcome — a replica's once its group's vote ran —, park the attempt for
// resume, or fail the run.
//
//gridlint:credit pool totals fold in each settled outcome's bytes
func (p *SupervisorPool) streamWorker(ctx context.Context, d *dispatcher, sl *connSlot, cfg *streamConfig, window int, sem chan struct{}, stream *TaskStream) {
	for {
		l, ok := d.claim(sl)
		if !ok {
			return
		}
		if !d.start(l) {
			continue
		}
		id := l.task.ID
		if l.at == nil {
			at, err := p.sup.NewAttempt(l.task)
			if err != nil {
				d.complete(l, false)
				d.fail(fmt.Errorf("grid: task %d: %w", id, err))
				return
			}
			at.pt.outcome.Replica = l.replica
			l.at = at
		}
		// Bind the attempt to this slot's window ledger (nil without window
		// settling) so decide() banks the task's stream digest on the link
		// whose commits will cover it. Re-bound on every claim: an attempt
		// that received nothing before a quarantine may finish on another
		// link.
		l.at.pt.ledger = sl.ledger
		sess, gen, conn := sl.current()

		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			// Hand the ticket back so accounting settles at teardown.
			d.parkForResume(l)
			return
		}
		outcome, err := sess.RunAttempt(l.at)
		<-sem

		if err != nil {
			if errors.Is(err, ErrConnQuarantined) {
				d.parkForResume(l)
				sl.recover(gen, d, p, cfg, window)
				continue
			}
			// Terminal failure: the attempt never reaches an outcome, so
			// close its eval and byte accounting here.
			d.abandonAttempt(l.at)
			d.complete(l, false)
			d.fail(fmt.Errorf("grid: task %d: %w", id, err))
			return
		}
		p.bytesSent.Add(outcome.BytesSent)
		p.bytesRecv.Add(outcome.BytesRecv)
		// Read the verdict before any vote: the group's last replica to
		// settle rewrites every member's.
		rejected := !outcome.Verdict.Accepted
		settled := []StreamedOutcome{{Outcome: outcome, Conn: conn}}
		if d.replicas > 0 {
			if settled, err = d.vote(settled[0], l.at.pt.st.results); err != nil {
				d.complete(l, false)
				d.fail(fmt.Errorf("grid: task %d: %w", id, err))
				return
			}
		}
		for _, so := range settled {
			select {
			case stream.outcomes <- so:
			case <-ctx.Done():
			}
		}
		d.complete(l, rejected)
	}
}
