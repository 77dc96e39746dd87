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
//     connections.

import (
	"context"
	"errors"
	"fmt"
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
// attempt is mid-protocol with that slot's participant. grp and repIdx are
// set on double-check replica tickets: the ticket is one member of a
// replicated group, settling through the group rendezvous.
type ticket struct {
	task   Task
	at     *taskAttempt
	pin    *connSlot
	grp    *replicaGroup
	repIdx int
	// parked marks a replica ticket waiting for its rendezvous to settle:
	// it occupies no worker and no window slot, and claim passes over it
	// until the group's comparison has run. This is what keeps replica
	// barriers deadlock-free — a blocked barrier never holds the scheduler
	// resources its missing sibling needs.
	parked bool
}

// bound reports whether the ticket has to stay on its slot: an attempt
// exists and was parked there, so the slot's participant may hold protocol
// state for it. A ticket that placement merely put on a slot is not bound —
// nothing has been sent — and retiring the slot moves it elsewhere.
func (t ticket) bound() bool { return t.pin != nil && t.at != nil }

// replicaGroup is the dispatcher's view of one replicated task: the shared
// rendezvous plus which slot currently hosts each replica, so placement and
// re-placement keep the group on pairwise-distinct connections. slots is
// guarded by dispatcher.mu.
type replicaGroup struct {
	task  Task
	rdv   *replicaRendezvous
	slots []*connSlot
}

// Lease lifecycle (all transitions under dispatcher.mu).
const (
	leaseClaimed int32 = iota
	leaseStarted
	leaseRevoked
)

// lease is one worker's revocable hold on a ticket.
type lease struct {
	ticket
	slot  *connSlot
	state int32
	// banked marks a lease over a banked replica ticket (see
	// dispatcher.banked): the worker synthesizes the outcome from the
	// settled rendezvous instead of running an exchange.
	banked bool
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

// currentConn returns the live connection. Safe to call with dispatcher.mu
// held — the lock order is dispatcher.mu before connSlot.mu, never the
// reverse.
func (sl *connSlot) currentConn() transport.Conn {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.conn
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
	// retired slots take no fresh work; dead ones (a subset) have lost their
	// link for good.
	retired map[*connSlot]bool
	dead    map[*connSlot]bool
	// banked holds replica tickets whose upload already reached the group
	// rendezvous when their slot died: the upload still votes, the exchange
	// cannot resume anywhere (the participant's prover state died with it),
	// and the outcome is synthesized from the group verdict once it settles.
	banked []ticket
	// source feeds tickets lazily: refillLocked materializes at most
	// highWater tickets ahead of execution, consuming source at sourceNext
	// until it reports exhaustion (sourceDone).
	source     TaskSource
	sourceNext uint64
	sourceDone bool
	highWater  int
	// Placement. A work-stealing stream queues every drawn task on pending.
	// A pinned or replicated one (replicas > 0) places each ticket on a slot
	// with one persistent round-robin cursor over allSlots — see placeLocked.
	// retireOnReject makes a rejecting outcome retire its slot and holds the
	// cursor at a slot that already has window undecided tickets.
	pinnedRR       bool
	replicas       int
	cursor         uint64
	window         int
	retireOnReject bool
	// slots maps every connection a slot has owned (original and
	// replacements) back to it, for Retire.
	slots map[transport.Conn]*connSlot
	// allSlots lists every slot in connection order; groups holds the
	// replica groups whose rendezvous has not settled, so a failing or
	// cancelled run can release blocked barriers.
	allSlots []*connSlot
	groups   map[*replicaGroup]struct{}

	// identity, when set (WithWorkerIdentity), maps a connection to the
	// participant behind it; replica distinctness is then per worker, not
	// per connection slot. Consulted under mu — it must be fast and must
	// not call back into the dispatcher.
	identity  func(transport.Conn) string
	pool      *SupervisorPool
	cancelled bool
	err       error
	cancel    context.CancelFunc
	// wake carries rendezvous-settled nudges from notifyReady to the waker
	// goroutine, which re-broadcasts under mu so claim waiters re-scan for
	// parked tickets that became claimable.
	wake chan struct{}
}

func newDispatcher(pool *SupervisorPool, cfg *streamConfig, source TaskSource, window int, cancel context.CancelFunc) *dispatcher {
	d := &dispatcher{
		pinned:         make(map[*connSlot][]ticket),
		leases:         make(map[*lease]struct{}),
		retired:        make(map[*connSlot]bool),
		dead:           make(map[*connSlot]bool),
		slots:          make(map[transport.Conn]*connSlot),
		groups:         make(map[*replicaGroup]struct{}),
		source:         source,
		sourceNext:     cfg.sourceBase,
		highWater:      cfg.highWater,
		pinnedRR:       cfg.pinned,
		replicas:       cfg.replicas,
		cursor:         cfg.sourceBase * uint64(max(1, cfg.replicas)),
		window:         window,
		retireOnReject: cfg.retireOnReject,
		identity:       cfg.identity,
		pool:           pool,
		cancel:         cancel,
		wake:           make(chan struct{}, 1),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// hostsLocked reports whether sl already carries one of members — directly,
// or (with a WithWorkerIdentity mapping) through any connection routed to
// the same worker. Pairwise-distinct placement keyed this way keeps replica
// groups on distinct participants even when several connections (broker
// routes, say) reach one worker. skip names a member index to ignore: a
// replica being re-placed vacates its own position, so its dead slot's
// worker must not veto a replacement route to that same worker (pass -1 to
// consider every member). nil members are positions not yet filled.
func (d *dispatcher) hostsLocked(members []*connSlot, sl *connSlot, skip int) bool {
	for i, member := range members {
		if i != skip && member == sl {
			return true
		}
	}
	if d.identity == nil {
		return false
	}
	id := d.identity(sl.currentConn())
	if id == "" {
		return false
	}
	for i, member := range members {
		if i == skip || member == nil {
			continue
		}
		if d.identity(member.currentConn()) == id {
			return true
		}
	}
	return false
}

// notifyReady is the rendezvous onReady hook: a non-blocking nudge that a
// parked replica may have become claimable. It takes no locks, so a
// rendezvous may settle from any lock context (including under d.mu, as
// quorum failure during markDead does); the waker goroutine converts the
// nudge into a cond.Broadcast under the dispatcher lock.
func (d *dispatcher) notifyReady() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
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
	for _, t := range d.banked {
		d.abandonAttempt(t.at)
	}
}

// fail records the run's first error and cancels everything.
func (d *dispatcher) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.cancelled = true
	d.abortGroupsLocked(err)
	d.cond.Broadcast()
	d.mu.Unlock()
	d.cancel()
}

// stop ends scheduling without an error (context cancelled upstream).
func (d *dispatcher) stop() {
	d.mu.Lock()
	d.cancelled = true
	d.abortGroupsLocked(context.Canceled)
	d.cond.Broadcast()
	d.mu.Unlock()
}

// abortGroupsLocked releases every replica barrier so no exchange stays
// blocked waiting for siblings that will never arrive. Completed groups are
// untouched (abort is a no-op once a rendezvous settled).
func (d *dispatcher) abortGroupsLocked(err error) {
	for g := range d.groups {
		g.rdv.abort(err)
	}
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
// tickets (attempts parked there mid-protocol or at a replica barrier) and
// started leases are left to finish.
func (d *dispatcher) retireLocked(sl *connSlot) {
	if d.retired[sl] {
		return
	}
	d.retired[sl] = true
	for l := range d.leases {
		if l.slot == sl && l.state == leaseClaimed && !l.bound() && d.rerouteLocked(l.ticket, sl) {
			l.state = leaseRevoked
			delete(d.leases, l)
		}
	}
	// Rerouting never queues onto sl (it is retired now), so filtering its
	// queue in place is safe.
	kept := d.pinned[sl][:0]
	for _, t := range d.pinned[sl] {
		if t.bound() || !d.rerouteLocked(t, sl) {
			kept = append(kept, t)
		}
	}
	d.pinned[sl] = kept
	d.cond.Broadcast()
}

// rerouteLocked moves an unbound ticket off the retired slot from: a replica
// to a connection free of its siblings, anything else to the shared queue,
// where the next live connection with a free worker takes it. It reports
// false for a replica no other connection can host; that one stays and runs
// where it is — replication, not scheduling, is what guards its group.
func (d *dispatcher) rerouteLocked(t ticket, from *connSlot) bool {
	if t.grp != nil {
		return d.moveReplicaLocked(t, from)
	}
	t.pin = nil
	d.pending = append(d.pending, t)
	return true
}

// markDead declares the slot's link permanently gone: retire it and restart
// everything still bound to it — queued pinned tickets and claimed pinned
// leases — from scratch on the pending queue (replica tickets are instead
// re-placed on a connection free of their siblings, or declared lost).
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
// picks it up. Replica tickets keep their group identity and route through
// re-placement instead of the shared queue.
func (d *dispatcher) restartTicketLocked(t ticket) {
	if t.grp != nil {
		d.replaceReplicaLocked(t, t.grp.slots[t.repIdx])
		return
	}
	d.abandonAttempt(t.at)
	d.pending = append(d.pending, ticket{task: t.task})
}

// replaceReplicaLocked deals with a replica whose slot died. One whose
// upload already reached the rendezvous is not restarted: the banked upload
// still votes in the group comparison, and re-running the task elsewhere
// would burn a full execution only to submit a second, ignored upload — the
// ticket is banked instead and its outcome synthesized from the group
// verdict once it settles. Any other restarts from scratch on another
// connection (the dead participant's protocol state is gone), and when no
// connection can take it the replica is declared lost and the group's
// comparison degrades to a quorum over the remaining uploads.
func (d *dispatcher) replaceReplicaLocked(t ticket, dead *connSlot) {
	if t.at != nil && t.at.pt.st.submitted {
		t.pin = dead
		t.parked = false
		d.banked = append(d.banked, t)
		return
	}
	d.abandonAttempt(t.at)
	if !d.moveReplicaLocked(t, dead) {
		t.grp.rdv.fail(t.repIdx)
	}
}

// moveReplicaLocked queues replica t, now on slot from, as a fresh ticket on
// the first live, non-retired connection that hosts none of its siblings.
// It reports false when there is none.
func (d *dispatcher) moveReplicaLocked(t ticket, from *connSlot) bool {
	for _, cand := range d.allSlots {
		if cand == from || d.retired[cand] || d.hostsLocked(t.grp.slots, cand, t.repIdx) {
			continue
		}
		t.grp.slots[t.repIdx] = cand
		d.pinned[cand] = append(d.pinned[cand], ticket{task: t.task, grp: t.grp, repIdx: t.repIdx, pin: cand})
		return true
	}
	return false
}

// claim blocks until the slot has work: banked outcomes ready to settle,
// its own pinned tickets, then the shared pending queue (both topped up from
// the task source). It returns false when the worker should exit — run
// cancelled, slot retired with no pinned work left, or all work globally
// drained.
func (d *dispatcher) claim(sl *connSlot) (*lease, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.cancelled {
			return nil, false
		}
		if l, ok := d.takeBankedLocked(sl); ok {
			return l, true
		}
		if l, ok := d.takePinnedLocked(sl); ok {
			return l, true
		}
		if d.retired[sl] {
			// A retired slot claims nothing fresh, but its workers must
			// outlive any tickets still pinned to it — a replica parked at
			// an unready barrier becomes claimable only when the group
			// settles, and exiting now would strand it.
			if len(d.pinned[sl]) == 0 {
				return nil, false
			}
			d.cond.Wait()
			continue
		}
		if d.refillLocked() {
			continue // the refill may have placed work on this very slot
		}
		if len(d.pending) > 0 {
			t := d.pending[0]
			d.pending = d.pending[1:]
			return d.leaseLocked(t, sl), true
		}
		if d.sourceDone && len(d.leases) == 0 && d.pinnedEmptyLocked() && len(d.banked) == 0 {
			return nil, false
		}
		d.cond.Wait()
	}
}

// takePinnedLocked claims the slot's first claimable pinned ticket, FIFO;
// replicas parked at an unready rendezvous are passed over (they need no
// worker until the group settles — the waker re-broadcasts when it does).
func (d *dispatcher) takePinnedLocked(sl *connSlot) (*lease, bool) {
	ts := d.pinned[sl]
	for i, t := range ts {
		if t.parked && !t.grp.rdv.ready() {
			continue
		}
		d.pinned[sl] = append(append(make([]ticket, 0, len(ts)-1), ts[:i]...), ts[i+1:]...)
		return d.leaseLocked(t, sl), true
	}
	return nil, false
}

// takeBankedLocked claims the first banked replica ticket whose rendezvous
// has settled. Any slot's worker may settle a banked outcome — no exchange
// runs, the verdict is read from the rendezvous.
func (d *dispatcher) takeBankedLocked(sl *connSlot) (*lease, bool) {
	for i, t := range d.banked {
		if !t.grp.rdv.ready() {
			continue
		}
		d.banked = append(d.banked[:i], d.banked[i+1:]...)
		l := d.leaseLocked(t, sl)
		l.banked = true
		return l, true
	}
	return nil, false
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
	outstanding := len(d.pending) + len(d.leases) + len(d.banked)
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
// hosts no sibling. The cursor persists across tasks and, until a slot is
// retired, advances one slot per ticket: task i of an unreplicated stream
// lands on slot i mod len(conns), and replica groups are placed exactly as
// an eager walk over the whole task list would place them, because a
// placement depends only on the cursor and the group's own slots.
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
	if d.replicas == 0 {
		sl := d.nextSlotLocked(&cursor, nil)
		if !d.placeableLocked(sl) {
			return 0
		}
		d.cursor = cursor
		d.pinned[sl] = append(d.pinned[sl], ticket{task: task, pin: sl})
		return 1
	}
	chosen := make([]*connSlot, d.replicas)
	for j := range chosen {
		chosen[j] = d.nextSlotLocked(&cursor, chosen)
		if !d.placeableLocked(chosen[j]) {
			return 0
		}
	}
	d.cursor = cursor
	rdv := newReplicaRendezvous(d.replicas)
	rdv.onReady = d.notifyReady
	grp := &replicaGroup{task: task, rdv: rdv, slots: chosen}
	d.groups[grp] = struct{}{}
	for j, sl := range chosen {
		d.pinned[sl] = append(d.pinned[sl], ticket{task: task, grp: grp, repIdx: j, pin: sl})
	}
	return len(chosen)
}

// nextSlotLocked advances *cursor to the next slot that is not retired and
// hosts none of members, looking at each slot at most once; nil when there
// is none.
func (d *dispatcher) nextSlotLocked(cursor *uint64, members []*connSlot) *connSlot {
	n := uint64(len(d.allSlots))
	for tries := uint64(0); tries < n; tries++ {
		cand := d.allSlots[*cursor%n]
		*cursor++
		if !d.retired[cand] && (members == nil || !d.hostsLocked(members, cand, -1)) {
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
	l := &lease{ticket: t, slot: sl, state: leaseClaimed}
	d.leases[l] = struct{}{}
	return l
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
		return false
	}
	if d.cancelled || (!l.bound() && d.retired[l.slot] && d.rerouteLocked(l.ticket, l.slot)) {
		l.state = leaseRevoked
		delete(d.leases, l)
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
	if l.grp != nil && l.grp.rdv.ready() {
		delete(d.groups, l.grp)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// parkAtBarrier shelves a replica whose exchange reached an incomplete
// rendezvous: the ticket keeps its attempt (upload submitted, protocol
// state live on the participant) and waits, claimable again once the
// group settles and the waker broadcasts.
func (d *dispatcher) parkAtBarrier(l *lease) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.leases, l)
	t := l.ticket
	t.pin = l.slot
	t.parked = true
	d.pinned[l.slot] = append(d.pinned[l.slot], t)
	d.cond.Broadcast()
}

// parkForResume returns a quarantined lease's ticket to the scheduler: bound
// mid-protocol attempts pin to their slot (to resume on the replacement
// connection), unbound ones rejoin the shared queue for any connection, and
// tickets whose slot is already dead restart from scratch. Replica tickets
// always stay with their slot — sibling distinctness is per slot — unless
// the slot is dead, in which case they are re-placed.
func (d *dispatcher) parkForResume(l *lease) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.leases, l)
	t := l.ticket
	switch {
	case t.grp != nil && d.dead[l.slot]:
		d.replaceReplicaLocked(t, l.slot)
	case t.grp != nil:
		t.pin = l.slot
		d.pinned[l.slot] = append(d.pinned[l.slot], t)
	case t.at != nil && t.at.started() && d.dead[l.slot]:
		d.restartTicketLocked(t)
	case t.at != nil && t.at.started():
		t.pin = l.slot
		d.pinned[l.slot] = append(d.pinned[l.slot], t)
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

// settleBanked closes out a banked replica: read the settled group verdict,
// fold the attempt's accounting into the pool, and report the outcome the
// dead link's exchange would have produced. A rendezvous error (quorum
// lost) leaves no verdict to report; the attempt still settles.
//
//gridlint:credit a banked replica's bytes reach the pool here, its exchange being unfinishable
func (p *SupervisorPool) settleBanked(l *lease) (*TaskOutcome, error) {
	at := l.at
	v, err := l.grp.rdv.await(l.repIdx)
	at.settle(p.sup)
	p.bytesSent.Add(at.bytesSent)
	p.bytesRecv.Add(at.bytesRecv)
	if err != nil {
		return nil, err
	}
	pt := &at.pt
	pt.outcome.Verdict = v
	pt.outcome.BytesSent = at.bytesSent
	pt.outcome.BytesRecv = at.bytesRecv
	return pt.outcome, nil
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
// over conns as tasks are drawn. Each replica's upload phase pipelines
// freely inside its session window, and the settle phase meets a
// cross-connection rendezvous that compares the group's uploads and issues
// one verdict per replica — R outcomes per task, ordered by (Task.ID,
// Replica). A replica reaching an incomplete rendezvous parks — holding no
// worker and no window slot — and is re-claimed when the group settles, so
// barriers can never deadlock the scheduler however tasks interleave.
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
	if c.identity == nil {
		return nil
	}
	// With identity-keyed distinctness a group needs as many distinct
	// workers as replicas, not just connections.
	distinct := make(map[string]struct{}, len(conns))
	for i, conn := range conns {
		id := c.identity(conn)
		if id == "" {
			id = fmt.Sprintf("\x00conn-%d", i) // unknown: distinct by connection
		}
		distinct[id] = struct{}{}
	}
	if len(distinct) < c.replicas {
		return fmt.Errorf("%w: %d replicas need as many distinct workers, got %d",
			ErrBadConfig, c.replicas, len(distinct))
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
// cancellation watcher, the rendezvous waker, the per-slot exchange
// workers, and the finisher that drains, optionally checkpoints, closes the
// sessions, and publishes the terminal error.
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
	// The waker: rendezvous settle from arbitrary goroutines (and lock
	// contexts); this loop turns their lock-free nudges into dispatcher
	// broadcasts so claim waiters re-scan parked tickets. It ends with the
	// run — d.stop's own broadcast covers the shutdown races.
	go func() {
		for {
			select {
			case <-d.wake:
				d.mu.Lock()
				d.cond.Broadcast()
				d.mu.Unlock()
			case <-ctx.Done():
				return
			}
		}
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
// outcome, park the attempt for resume, or fail the run.
//
//gridlint:credit pool totals fold in each streamed outcome's settled bytes
func (p *SupervisorPool) streamWorker(ctx context.Context, d *dispatcher, sl *connSlot, cfg *streamConfig, window int, sem chan struct{}, stream *TaskStream) {
	for {
		l, ok := d.claim(sl)
		if !ok {
			return
		}
		if !d.start(l) {
			continue
		}
		if l.banked {
			// The dead replica's upload already votes at the rendezvous
			// (which is ready, or this lease would not exist); synthesize its
			// outcome without an exchange. The outcome's connection is the
			// dead link that carried the upload, so per-worker attribution
			// stays truthful.
			outcome, err := p.settleBanked(l)
			if err == nil {
				select {
				case stream.outcomes <- StreamedOutcome{Outcome: outcome, Conn: l.pin.currentConn()}:
				case <-ctx.Done():
				}
			}
			// Never a retirement: the slot that carried the upload is dead
			// already, and l.slot merely lent a worker.
			d.complete(l, false)
			continue
		}
		if l.at == nil {
			var at *taskAttempt
			var err error
			if l.grp != nil {
				at, err = p.sup.newReplicaAttempt(l.task, l.grp.rdv, l.repIdx)
			} else {
				at, err = p.sup.NewAttempt(l.task)
			}
			if err != nil {
				d.complete(l, false)
				d.fail(fmt.Errorf("grid: task %d: %w", l.task.ID, err))
				return
			}
			l.at = at
		}
		// Bind the attempt to this slot's window ledger (nil without window
		// settling) so decide() banks the task's stream digest on the link
		// whose commits will cover it. Re-bound on every claim: a replica
		// re-placed after a slot death must report to its new link's ledger.
		l.at.pt.ledger = sl.ledger
		sess, gen, conn := sl.current()

		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			// Hand the ticket back so accounting settles at teardown.
			d.parkForResume(l)
			return
		}
		// Replica exchanges share the worker bound safely because they
		// never hold it across their group barrier: an unready rendezvous
		// parks the attempt (errReplicaParked) instead of blocking.
		outcome, err := sess.RunAttempt(l.at)
		<-sem

		if err != nil {
			if errors.Is(err, errReplicaParked) {
				// The replica reached its rendezvous before the group was
				// complete; shelve it (no worker, no window slot) until the
				// comparison runs, and claim other work meanwhile.
				d.parkAtBarrier(l)
				continue
			}
			if errors.Is(err, ErrConnQuarantined) {
				d.parkForResume(l)
				sl.recover(gen, d, p, cfg, window)
				continue
			}
			if l.grp != nil && ctx.Err() != nil {
				// The barrier was released by cancellation, not by a fault of
				// this replica; park so accounting settles at teardown.
				d.parkForResume(l)
				return
			}
			// Terminal failure: the attempt never reaches an outcome, so
			// close its eval and byte accounting here.
			d.abandonAttempt(l.at)
			d.complete(l, false)
			d.fail(fmt.Errorf("grid: task %d: %w", l.task.ID, err))
			return
		}
		p.bytesSent.Add(outcome.BytesSent)
		p.bytesRecv.Add(outcome.BytesRecv)
		select {
		case stream.outcomes <- StreamedOutcome{Outcome: outcome, Conn: conn}:
		case <-ctx.Done():
		}
		d.complete(l, !outcome.Verdict.Accepted)
	}
}
