package grid

// The GRACE broker hub.
//
// Section 4 of the paper motivates NI-CBS with the GRACE deployment: a Grid
// Resource Broker sits between supervisor and participants, so the
// supervisor cannot open interactive challenge rounds. BrokerHub is that
// broker, and it has one link model:
//
//   - Two kinds of physical link. A participant link opens with a worker
//     hello (HelloWorker) and is parked under its identity until a route
//     binds it. A supervisor link opens with a mux hello (OpenMux) and
//     carries any number of routes inside msgRouted envelopes; each route
//     is opened by naming a worker (SupervisorMux.OpenRoute) and the hub
//     binds it to that worker's parked link. A supervisor that wants one
//     route opens a one-route mux.
//
//   - Resume-through-relay. Routing is by identity, not by physical link:
//     when a transport fault kills a route, a redial that names the same
//     worker is bound to that worker's freshly registered link, so the
//     msgResume machinery (mid-protocol resume, verdict re-delivery) works
//     end to end through the relay. Faulty brokered verdicts are
//     byte-identical to clean direct runs (TestRunSimBrokeredFaultyMatchesClean).
//
//   - Credit is the only supervisor-side backpressure. Each route has a
//     credit ledger per direction (credit.go); the link's single reader
//     never blocks on one route's queue, and its single writer parks a
//     route that is out of credit instead of stalling the link. Toward the
//     participant the hub applies plain queue backpressure on the worker's
//     own link.
//
//   - Relay-hop batching. Consecutive msgBatch frames queued behind a slow
//     downstream send are decoded and merged into one larger batch frame,
//     so a pipelined session pays the downstream link delay once per burst
//     (the Goodrich pipeline shape, arXiv:0906.1225, applied at the relay).
//     A tagged message's wire size does not depend on the frame carrying
//     it, so per-task byte accounting is preserved exactly.
//
//   - Fault transparency. A CRC-corrupt frame on a worker link quarantines
//     that route; one on a supervisor link cannot be attributed to a route
//     and quarantines the physical link with every route on it. Neither
//     kills the hub, and the peers' session layers see a dead connection
//     and redial.
//
// The hub is protocol-oblivious where it matters: it never interprets task
// payloads and forwards frames it cannot re-batch untouched. It understands
// the hello handshake, the mux envelope, credit grants and the msgBatch
// envelope.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"uncheatgrid/internal/transport"
)

// ErrBrokerClosed is returned for operations on a closed hub.
var ErrBrokerClosed = errors.New("grid: broker hub closed")

// defaultBindTimeout bounds how long a route waits for its named worker to
// register before it is refused.
const defaultBindTimeout = 10 * time.Second

// brokerConfig collects NewBrokerHub options.
type brokerConfig struct {
	bindTimeout  time.Duration
	creditWindow int64
}

// BrokerOption configures NewBrokerHub.
type BrokerOption interface {
	applyBroker(*brokerConfig)
}

type bindTimeoutOption time.Duration

func (o bindTimeoutOption) applyBroker(c *brokerConfig) { c.bindTimeout = time.Duration(o) }

// WithBindTimeout bounds how long a route waits for its named worker to
// register, and how long any attached link may take to send its hello
// (default 10s for both). A timed-out handshake closes the link; a
// timed-out bind closes the route (its supervisor reads io.EOF). The peer's
// session layer treats both like any other dead connection.
func WithBindTimeout(d time.Duration) BrokerOption { return bindTimeoutOption(d) }

// LinkOption configures both endpoints of a supervisor↔hub link: it is
// accepted by NewBrokerHub and OpenMux, so a parameter both sides must
// agree on can be passed from one value.
type LinkOption interface {
	BrokerOption
	MuxOption
}

type routeCreditWindowOption int64

func (o routeCreditWindowOption) value() (int64, bool) {
	if o <= 0 {
		return 0, false
	}
	// The wire decoders reject grants and windows above maxCreditGrant, so
	// a ceiling beyond it could never be granted anyway.
	if o > maxCreditGrant {
		return maxCreditGrant, true
	}
	return int64(o), true
}

func (o routeCreditWindowOption) applyBroker(c *brokerConfig) {
	if v, ok := o.value(); ok {
		c.creditWindow = v
	}
}

func (o routeCreditWindowOption) applyMux(c *muxConfig) {
	if v, ok := o.value(); ok {
		c.creditWindow = v
	}
}

// WithRouteCreditWindow sets the per-route credit window CEILING of a
// supervisor↔hub link, in inner-frame bytes (default 256 KiB). Flow control
// is credit-based in both directions: each receiver extends byte credit per
// route, the sender stops when its balance runs dry, and the receiver
// grants more as the route's consumer drains. The window itself is
// adaptive — it starts at the minRouteCreditWindowBytes floor (32 KiB, or
// the ceiling if smaller), grows with the route's observed drain rate up to
// this ceiling, and decays toward the floor when the route idles — so a
// slow or idle route bounds its own receiver memory near the floor instead
// of the whole link's, and a 1k-route hub holds far less than routes ×
// ceiling. Both endpoints must use the same ceiling — pass the option to
// NewBrokerHub and to every OpenMux on that hub — because each side
// computes the other's initial credit from it. Values below 1 select the
// default.
func WithRouteCreditWindow(n int64) LinkOption { return routeCreditWindowOption(n) }

// RouteDirectionStats counts one direction of a worker's relayed traffic.
// Ingress is measured as frames arrive at the hub on the direction's source
// link; egress as frames leave it, after any relay-hop re-batching — egress
// carries the same tagged payload in fewer, larger frames. The
// supervisor-link side (ToWorker ingress, ToSupervisor egress) counts inner
// frames — what each frame costs outside its envelope, the size the route's
// endpoint counters use — and the worker-link side counts physical frames;
// the shared-envelope framing difference is carried by the hub's signed
// overhead ledgers.
type RouteDirectionStats struct {
	IngressMsgs, IngressBytes int64
	EgressMsgs, EgressBytes   int64
}

// RouteStats aggregates one worker identity's relay traffic across every
// route the hub ever bound for it (redials included). Together with the
// link-level ledgers of HubSnapshot it accounts for every byte on the
// hub's links: HubSnapshot.SupervisorLinkBytes is the identity for the
// supervisor-facing links, and on the worker-facing links
//
//	bytes received == Σ (WorkerHelloBytes + ToSupervisor ingress + CorruptBytes) + EvictedBytes
//	bytes sent     == Σ ToWorker egress
type RouteStats struct {
	// Worker is the identity the counters are keyed by.
	Worker string
	// Binds counts routes bound to this worker.
	Binds int64
	// WorkerHelloBytes counts the registration frames of this worker's
	// links, SupervisorHelloBytes the open and close hellos of its routes;
	// the hub consumes both (never relayed).
	WorkerHelloBytes, SupervisorHelloBytes int64
	// CorruptFrames and CorruptBytes count frames that failed the transport
	// CRC arriving on this worker's bound links; each one quarantined its
	// route. Supervisor-link corruption cannot be attributed to a worker
	// and is counted in HubSnapshot.MuxCorrupt*.
	CorruptFrames, CorruptBytes int64
	// ToWorker covers supervisor→participant relaying, ToSupervisor the
	// reverse direction.
	ToWorker, ToSupervisor RouteDirectionStats
	// ToWorkerGrantedBytes totals the credit the hub granted back to the
	// supervisor for this worker's ToWorker direction. The grant ledger
	// reconciles per live route as
	// initial window + granted == ToWorker ingress + outstanding.
	ToWorkerGrantedBytes int64
	// ToSupervisorGrantedBytes totals the credit supervisors granted the
	// hub for this worker's ToSupervisor direction, and ToSupervisorStalls
	// counts the times a route was parked out of the shared writer's ready
	// ring for lack of supervisor credit — each park is a slow consumer
	// isolated instead of a link stalled.
	ToSupervisorGrantedBytes, ToSupervisorStalls int64
}

// HubSnapshot is the hub's accounting at one instant: the link-level
// ledgers plus every worker identity's RouteStats. After Close the counters
// are final.
type HubSnapshot struct {
	// RelayedMsgs and RelayedBytes total the data frames the hub forwarded
	// (egress, both directions, all routes, after re-batching; physical
	// frame bytes). Control frames are not part of them.
	RelayedMsgs, RelayedBytes int64
	// RejectedLinks counts attached links refused at the hello (silent,
	// corrupt, malformed, a retired or mid-link role, identity capacity)
	// and RejectedBytes the bytes received on them.
	RejectedLinks, RejectedBytes int64
	// EvictedLinks counts worker links that died while parked unbound, and
	// EvictedBytes the bytes of the read that found them dead.
	EvictedLinks, EvictedBytes int64
	// MuxLinks counts supervisor links ever attached, RoutesOpened the
	// routes ever opened on them, MuxHelloBytes their attach handshakes.
	MuxLinks, RoutesOpened, MuxHelloBytes int64
	// ControlMsgs/Bytes count hub-originated control frames (credit grants
	// and close notices); ControlInMsgs/Bytes the supervisors' credit
	// grants arriving at the hub. Physical frame bytes.
	ControlMsgs, ControlBytes     int64
	ControlInMsgs, ControlInBytes int64
	// MuxOverheadIn/Out are signed envelope ledgers: physical frame bytes
	// minus the inner frame bytes they carried (plus, inbound, frames the
	// hub refused as protocol violations). Outbound goes negative when
	// cross-worker coalescing saves more in headers than route tags cost.
	MuxOverheadIn, MuxOverheadOut int64
	// OrphanFrames/Bytes count routed entries addressed to routes the hub
	// no longer (or never) knew, dropped; inner frame bytes.
	OrphanFrames, OrphanBytes int64
	// MuxCorruptFrames/Bytes count CRC-corrupt frames on supervisor links;
	// each quarantined its whole physical link.
	MuxCorruptFrames, MuxCorruptBytes int64
	// CreditWindowBytes sums every live route's current adaptive ToWorker
	// window — the hub's worst-case queued-byte exposure to supervisor
	// traffic, near routes × minRouteCreditWindowBytes for mostly-idle
	// fan-out.
	CreditWindowBytes int64
	// Routes holds every worker identity the hub has seen a handshake for.
	Routes map[string]RouteStats
}

// SupervisorLinkBytes returns the physical bytes the ledgers account for
// on the hub's attached supervisor links. They equal the sums of those
// links' hub-side endpoint counters exactly; a link refused at its hello
// is in RejectedBytes instead.
func (s HubSnapshot) SupervisorLinkBytes() (recv, sent int64) {
	recv = s.MuxHelloBytes + s.MuxOverheadIn + s.OrphanBytes + s.MuxCorruptBytes + s.ControlInBytes
	sent = s.MuxOverheadOut + s.ControlBytes
	for _, st := range s.Routes {
		recv += st.SupervisorHelloBytes + st.ToWorker.IngressBytes
		sent += st.ToSupervisor.EgressBytes
	}
	return recv, sent
}

// dirCounters is the mutable form of RouteDirectionStats.
type dirCounters struct {
	ingressMsgs, ingressBytes atomic.Int64
	egressMsgs, egressBytes   atomic.Int64
}

func (d *dirCounters) snapshot() RouteDirectionStats {
	return RouteDirectionStats{
		IngressMsgs:  d.ingressMsgs.Load(),
		IngressBytes: d.ingressBytes.Load(),
		EgressMsgs:   d.egressMsgs.Load(),
		EgressBytes:  d.egressBytes.Load(),
	}
}

// identity is the hub's record of one worker name: its cumulative relay
// accounting (the mutable form of RouteStats) and its bind slot.
type identity struct {
	binds                       atomic.Int64
	workerHelloBytes            atomic.Int64
	supervisorHelloBytes        atomic.Int64
	corruptFrames, corruptBytes atomic.Int64
	toWorker                    dirCounters
	toSupervisor                dirCounters
	toWorkerGranted             atomic.Int64
	toSupGranted                atomic.Int64
	toSupStalls                 atomic.Int64

	// The bind slot, guarded by the hub mutex: at most one registered link
	// parked unbound, and the routes waiting for one, oldest first.
	parked  *workerLink
	waiting []*hubRoute
}

func (id *identity) stats(worker string) RouteStats {
	return RouteStats{
		Worker:                   worker,
		Binds:                    id.binds.Load(),
		WorkerHelloBytes:         id.workerHelloBytes.Load(),
		SupervisorHelloBytes:     id.supervisorHelloBytes.Load(),
		CorruptFrames:            id.corruptFrames.Load(),
		CorruptBytes:             id.corruptBytes.Load(),
		ToWorker:                 id.toWorker.snapshot(),
		ToSupervisor:             id.toSupervisor.snapshot(),
		ToWorkerGrantedBytes:     id.toWorkerGranted.Load(),
		ToSupervisorGrantedBytes: id.toSupGranted.Load(),
		ToSupervisorStalls:       id.toSupStalls.Load(),
	}
}

// BrokerHub is the session-aware GRACE broker: an identity-routed relay
// multiplexing any number of supervisor↔worker routes, with relay-hop
// batching and exact byte accounting. Hand it links with Attach after
// their first frame (sent by HelloWorker or OpenMux) names their role. The
// hub runs one reader and one writer goroutine per supervisor link however
// many routes ride it, one reader per parked worker link, and a reader and
// a writer per bound one.
type BrokerHub struct {
	cfg brokerConfig

	// The link-level ledgers; HubSnapshot documents each.
	relayedMsgs, relayedBytes         atomic.Int64
	rejectedLinks, rejectedBytes      atomic.Int64
	evictedLinks, evictedBytes        atomic.Int64
	muxLinks, routesOpened            atomic.Int64
	muxHelloBytes                     atomic.Int64
	ctrlMsgs, ctrlBytes               atomic.Int64
	ctrlMsgsIn, ctrlBytesIn           atomic.Int64
	muxOverheadIn, muxOverheadOut     atomic.Int64
	orphanFrames, orphanBytes         atomic.Int64
	muxCorruptFrames, muxCorruptBytes atomic.Int64

	// mu guards the registry below and every identity's bind slot. A link
	// mutex may be taken under it (bind, Snapshot), never the reverse.
	mu     sync.Mutex
	closed bool
	ids    map[string]*identity
	links  map[*supLink]struct{}
	// bound wakes worker-link readers holding a frame for a link that was
	// still parked when it arrived: signalled on every bind and discard.
	bound *sync.Cond
	pumps sync.WaitGroup
}

// NewBrokerHub creates an empty hub.
func NewBrokerHub(opts ...BrokerOption) *BrokerHub {
	cfg := brokerConfig{bindTimeout: defaultBindTimeout, creditWindow: defaultCreditWindowBytes}
	for _, opt := range opts {
		opt.applyBroker(&cfg)
	}
	h := &BrokerHub{
		cfg:   cfg,
		ids:   make(map[string]*identity),
		links: make(map[*supLink]struct{}),
	}
	h.bound = sync.NewCond(&h.mu)
	return h
}

// HelloWorker announces a participant identity on a link freshly dialed to
// a hub: send it on the participant's endpoint before Serve, then hand the
// hub's endpoint to Attach.
func HelloWorker(conn transport.Conn, worker string) error {
	return sendHello(conn, helloMsg{Role: helloRoleWorker, Worker: worker})
}

func sendHello(conn transport.Conn, m helloMsg) error {
	if conn == nil {
		return fmt.Errorf("%w: nil connection", ErrBadConfig)
	}
	if m.Worker == "" {
		return fmt.Errorf("%w: empty worker identity", ErrBadConfig)
	}
	if len(m.Worker) > maxWorkerNameLen {
		return fmt.Errorf("%w: worker identity of %d bytes (max %d)",
			ErrBadConfig, len(m.Worker), maxWorkerNameLen)
	}
	return conn.Send(transport.Message{Type: msgHello, Payload: encodeHello(m)})
}

// Snapshot returns the hub's accounting as of now.
func (h *BrokerHub) Snapshot() HubSnapshot {
	s := HubSnapshot{
		RelayedMsgs:      h.relayedMsgs.Load(),
		RelayedBytes:     h.relayedBytes.Load(),
		RejectedLinks:    h.rejectedLinks.Load(),
		RejectedBytes:    h.rejectedBytes.Load(),
		EvictedLinks:     h.evictedLinks.Load(),
		EvictedBytes:     h.evictedBytes.Load(),
		MuxLinks:         h.muxLinks.Load(),
		RoutesOpened:     h.routesOpened.Load(),
		MuxHelloBytes:    h.muxHelloBytes.Load(),
		ControlMsgs:      h.ctrlMsgs.Load(),
		ControlBytes:     h.ctrlBytes.Load(),
		ControlInMsgs:    h.ctrlMsgsIn.Load(),
		ControlInBytes:   h.ctrlBytesIn.Load(),
		MuxOverheadIn:    h.muxOverheadIn.Load(),
		MuxOverheadOut:   h.muxOverheadOut.Load(),
		OrphanFrames:     h.orphanFrames.Load(),
		OrphanBytes:      h.orphanBytes.Load(),
		MuxCorruptFrames: h.muxCorruptFrames.Load(),
		MuxCorruptBytes:  h.muxCorruptBytes.Load(),
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s.Routes = make(map[string]RouteStats, len(h.ids))
	for name, id := range h.ids {
		s.Routes[name] = id.stats(name)
	}
	var windows int64
	for l := range h.links {
		l.mu.Lock()
		for _, r := range l.routes {
			if r.state != routeDead {
				windows += r.toWorkerCredit.win
			}
		}
		l.mu.Unlock()
	}
	s.CreditWindowBytes = windows
	return s
}

// binds reports how many routes have bound the named worker so far — the
// one quantity bind-waiters poll, without a full Snapshot per poll.
func (h *BrokerHub) binds(worker string) int64 {
	h.mu.Lock()
	id := h.ids[worker]
	h.mu.Unlock()
	if id == nil {
		return 0
	}
	return id.binds.Load()
}

// maxBrokerIdentities caps how many distinct worker identities one hub
// tracks. Identities are never evicted — their counters are the accounting
// record — so a dialer cycling fresh names must not grow the hub without
// bound: handshakes naming a new identity past the cap are refused. A
// variable so tests can exercise the bound.
var maxBrokerIdentities = 1 << 16

// identityFor returns the worker's record, creating it on first sight, or
// nil when the identity cap forbids tracking a new name.
func (h *BrokerHub) identityFor(worker string) *identity {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.ids[worker]
	if id == nil {
		if len(h.ids) >= maxBrokerIdentities {
			return nil
		}
		id = &identity{}
		h.ids[worker] = id
	}
	return id
}

// Attach hands one freshly dialed link to the hub. The link's first frame
// must be a msgHello: a worker link (HelloWorker) is registered under its
// identity and relays once a route binds it; a supervisor link (OpenMux)
// gets its reader and writer and opens routes at will. Attach blocks only
// to read the hello frame (bounded by the bind timeout), never for a bind
// or a link's lifetime, so an accept loop may call it synchronously per
// connection. A link whose handshake is refused is closed, which is how
// the failure surfaces to the dialing peer.
//
//gridlint:credit accept boundary: hello and rejected-link bytes are only observable here
func (h *BrokerHub) Attach(conn transport.Conn) error {
	if conn == nil {
		return fmt.Errorf("%w: nil connection", ErrBadConfig)
	}
	// The handshake gets a deadline: a peer that connects and never sends
	// its hello must not wedge a synchronous accept loop, so the link is
	// closed — unblocking Recv — when the bind timeout passes without one.
	watchdog := time.AfterFunc(h.cfg.bindTimeout, func() { _ = conn.Close() })
	before := conn.Stats().BytesRecv()
	msg, err := conn.Recv()
	stopped := watchdog.Stop()
	arrived := conn.Stats().BytesRecv() - before
	reject := func(err error) error {
		h.rejectedLinks.Add(1)
		h.rejectedBytes.Add(arrived)
		_ = conn.Close()
		return err
	}
	if err != nil {
		// Classify before returning: a dropped or timed-out link is a
		// quarantine-class fault to the accept loop, not a config error.
		return reject(quarantineWrap(fmt.Errorf("grid: broker handshake: %w", err)))
	}
	if !stopped {
		// The watchdog already fired: the link is closed (or about to be),
		// so a hello that squeaked in at the deadline must not register a
		// dead link as a healthy one.
		return reject(fmt.Errorf("%w: broker handshake timed out after %v", ErrBadConfig, h.cfg.bindTimeout))
	}
	if msg.Type != msgHello {
		return reject(fmt.Errorf("%w: broker link opened with frame type %d, want hello",
			ErrUnexpectedMessage, msg.Type))
	}
	hello, err := decodeHello(msg.Payload)
	if err != nil {
		return reject(err)
	}
	switch hello.Role {
	case helloRoleWorker:
		id := h.identityFor(hello.Worker)
		if id == nil {
			return reject(fmt.Errorf("%w: hub is at its %d-identity capacity; refusing new worker %q",
				ErrBadConfig, maxBrokerIdentities, hello.Worker))
		}
		id.workerHelloBytes.Add(arrived)
		return h.registerWorker(id, conn)
	case helloRoleMux:
		// Mux labels name a supervisor, not a worker: they get link-level
		// accounting, not a slot in the identity registry.
		h.muxHelloBytes.Add(arrived)
		h.muxLinks.Add(1)
		return h.attachSupervisorLink(conn)
	default:
		// Open/close hellos are only meaningful on an attached link.
		return reject(fmt.Errorf("%w: hello role %d cannot open a link",
			ErrUnexpectedMessage, hello.Role))
	}
}

// workerLink is one registered participant link. Its reader starts at
// registration, so a link that dies while parked is noticed — and evicted —
// instead of being handed to the next route as a healthy worker.
type workerLink struct {
	hub  *BrokerHub
	id   *identity
	conn transport.Conn
	// Guarded by the hub mutex: the route the link was bound to, or gone
	// when it was discarded unbound (replaced, evicted, hub closed).
	route *hubRoute
	gone  bool
}

// registerWorker parks the link as its identity's unbound endpoint,
// replacing — and closing — a stale parked registration (a redialing
// harness re-registers before the hub necessarily noticed the old link
// die), and binds it at once if a route is already waiting.
func (h *BrokerHub) registerWorker(id *identity, conn transport.Conn) error {
	wl := &workerLink{hub: h, id: id, conn: conn}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return ErrBrokerClosed
	}
	stale := id.parked
	id.parked = wl
	if stale != nil {
		stale.gone = true
		h.bound.Broadcast()
	}
	h.pumps.Add(1)
	h.matchLocked(id)
	h.mu.Unlock()
	go wl.readLoop()
	if stale != nil {
		_ = stale.conn.Close()
	}
	return nil
}

// matchLocked binds the identity's parked link to its oldest waiting
// route, skipping routes that died while they waited.
func (h *BrokerHub) matchLocked(id *identity) {
	for id.parked != nil && len(id.waiting) > 0 {
		r := id.waiting[0]
		id.waiting = slices.Delete(id.waiting, 0, 1)
		if r.bind(id.parked) {
			id.parked = nil
		}
	}
}

// scheduleBind queues the route on its identity and binds it at once if
// the worker is parked; otherwise registerWorker completes the bind, or
// the bind timeout refuses it. Binds are event-driven: no goroutine waits
// on them.
func (h *BrokerHub) scheduleBind(r *hubRoute) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		r.fail(false)
		return
	}
	r.id.waiting = append(r.id.waiting, r)
	h.matchLocked(r.id)
	h.mu.Unlock()
	l := r.link
	l.mu.Lock()
	if r.state == routePending {
		r.bindTimer = time.AfterFunc(h.cfg.bindTimeout, func() { h.bindExpired(r) })
	}
	l.mu.Unlock()
}

// unwaitLocked removes the route from its identity's waiting list and
// reports whether it was still there — presence is the claim arbiter
// between a bind, a bind timeout and a teardown.
func (h *BrokerHub) unwaitLocked(r *hubRoute) bool {
	i := slices.Index(r.id.waiting, r)
	if i < 0 {
		return false
	}
	r.id.waiting = slices.Delete(r.id.waiting, i, i+1)
	return true
}

// bindExpired is the pending-bind watchdog: a route still waiting when the
// bind timeout fires is refused. Only the bind expired — the supervisor
// link is alive — so the supervisor is owed the close notice that tells
// its session the route is dead.
func (h *BrokerHub) bindExpired(r *hubRoute) {
	h.mu.Lock()
	expired := !h.closed && h.unwaitLocked(r)
	h.mu.Unlock()
	if expired {
		r.fail(true)
	}
}

// unpark forgets torn-down routes that were still waiting for a worker.
func (h *BrokerHub) unpark(routes []*hubRoute) {
	if len(routes) == 0 {
		return
	}
	h.mu.Lock()
	for _, r := range routes {
		h.unwaitLocked(r)
	}
	h.mu.Unlock()
}

// readLoop is the worker link's only reader. Its first Recv doubles as the
// parked link's monitor: the result and its measured byte delta are held
// until the bind, so a frame sent ahead of it is relayed first and
// accounted exactly. Once the link is bound every result is the route's.
func (wl *workerLink) readLoop() {
	defer wl.hub.pumps.Done()
	msg, arrived, err := wl.recv()
	r := wl.awaitBind(err != nil, arrived)
	if r == nil {
		return
	}
	defer r.loopDone()
	for r.fromWorker(msg, arrived, err) {
		msg, arrived, err = wl.recv()
	}
}

// recv reads one frame and measures the bytes the read consumed.
func (wl *workerLink) recv() (transport.Message, int64, error) {
	before := wl.conn.Stats().BytesRecv()
	msg, err := wl.conn.Recv()
	return msg, wl.conn.Stats().BytesRecv() - before, err
}

// awaitBind blocks until the link is bound and returns its route, or nil
// when the link ended unbound. A read error on a link that is still parked
// evicts it: a route arriving later waits for a live registration instead
// of binding a corpse.
//
//gridlint:credit eviction is the last observation point for a dead parked link's bytes
func (wl *workerLink) awaitBind(dead bool, arrived int64) *hubRoute {
	h := wl.hub
	h.mu.Lock()
	if dead && wl.id.parked == wl {
		wl.id.parked = nil
		h.mu.Unlock()
		_ = wl.conn.Close()
		h.evictedLinks.Add(1)
		h.evictedBytes.Add(arrived)
		return nil
	}
	for wl.route == nil && !wl.gone {
		h.bound.Wait()
	}
	r := wl.route
	h.mu.Unlock()
	return r
}

// defaultCreditWindowBytes is the per-route receive window ceiling when
// WithRouteCreditWindow is not given: the supervisor may have at most this
// many unacknowledged inner-frame bytes queued at the hub before it must
// wait for a credit grant, so one slow worker bounds its own route's hub
// memory instead of the whole link's.
const defaultCreditWindowBytes int64 = 256 << 10

// toSupQueueBytes bounds a route's worker→supervisor queue; a full queue
// blocks the worker link's reader, which is the natural backpressure
// toward the (clean, LAN-side) participant leg.
const toSupQueueBytes int64 = 1 << 20

// muxInnerPayloadCap bounds a single inner frame relayed through a mux
// envelope so the envelope itself stays under transport.MaxFrameBytes.
const muxInnerPayloadCap = int64(transport.MaxFrameBytes) - 64

// Route lifecycle states, guarded by the owning link's mutex.
const (
	routePending = iota // waiting for the named worker to register
	routeActive         // bound to a worker link, relaying
	routeDead           // torn down; late entries are orphans
)

// frameQ is one direction's frame queue, guarded by the owning link's
// mutex. closed means no more puts arrive but queued frames still drain
// (clean-close semantics); discard drops queued frames and refuses puts
// (fault semantics).
type frameQ struct {
	// frames holds the queued frames from index head on. Popping advances
	// head instead of reslicing, and a drained queue rewinds to the front of
	// its backing array, so a queue that empties between bursts — the usual
	// state of a relay that keeps up — refills in place instead of
	// reallocating.
	frames  []transport.Message
	head    int
	bytes   int64
	closed  bool
	discard bool
	// merge is coalesce's decode scratch.
	merge []taggedMsg
}

//gridlint:credit queue-occupancy ledger: put is the single enqueue site
func (q *frameQ) put(m transport.Message) bool {
	if q.closed || q.discard {
		return false
	}
	if n := len(q.frames); n == cap(q.frames) && q.head > 0 && q.head >= n/2 {
		// Full, and at least half of it popped: a queue that never quite
		// drains slides down here instead of growing without bound.
		live := copy(q.frames, q.frames[q.head:])
		clear(q.frames[live:])
		q.frames, q.head = q.frames[:live], 0
	}
	q.frames = append(q.frames, m)
	q.bytes += m.FrameSize()
	return true
}

//gridlint:credit queue-occupancy ledger: pop is the single dequeue site
func (q *frameQ) pop() (transport.Message, bool) {
	if q.empty() {
		return transport.Message{}, false
	}
	m := q.frames[q.head]
	q.frames[q.head] = transport.Message{} // do not pin the payload
	q.head++
	q.bytes -= m.FrameSize()
	if q.head == len(q.frames) {
		q.frames, q.head = q.frames[:0], 0
	}
	return m, true
}

func (q *frameQ) peek() (transport.Message, bool) {
	if q.empty() {
		return transport.Message{}, false
	}
	return q.frames[q.head], true
}

func (q *frameQ) empty() bool { return q.head == len(q.frames) || q.discard }

func (q *frameQ) drop() {
	q.frames, q.head = nil, 0
	q.bytes = 0
	q.discard = true
}

// coalesce pops first's successors while they are batch frames that fit,
// and returns them merged with first into one larger batch frame — or
// first itself when nothing merged. It stops at the session layer's frame
// caps, at limit bytes of tagged payload, at the first non-mergeable frame
// (left queued to preserve order), or when the queue runs dry. Frames the
// hub cannot decode are forwarded untouched — the hub is a relay, not a
// validator; the endpoint rules on them.
func (q *frameQ) coalesce(first transport.Message, limit int64) transport.Message {
	if next, ok := q.peek(); !ok || first.Type != msgBatch || next.Type != msgBatch {
		return first
	}
	msgs, err := decodeBatch(q.merge[:0], first.Payload)
	if err != nil {
		return first
	}
	defer func() {
		clear(msgs)
		q.merge = msgs[:0]
	}()
	var size int64
	for _, tm := range msgs {
		size += tm.wireSize()
	}
	merged := false
	for size < batchTargetBytes && len(msgs) < maxBatchMsgs {
		next, ok := q.peek()
		if !ok || next.Type != msgBatch {
			break
		}
		grown, err := decodeBatch(msgs, next.Payload)
		if err != nil {
			break
		}
		var moreSize int64
		for _, tm := range grown[len(msgs):] {
			moreSize += tm.wireSize()
		}
		if size+moreSize > limit || len(grown) > maxBatchMsgs {
			break
		}
		q.pop()
		msgs = grown
		size += moreSize
		merged = true
	}
	if !merged {
		return first
	}
	return transport.Message{Type: msgBatch, Payload: encodeBatch(msgs)}
}

// supLink is one physical supervisor↔hub connection carrying any number of
// routes inside msgRouted envelopes. It runs exactly two goroutines —
// readLoop and writeLoop — regardless of route count.
type supLink struct {
	hub  *BrokerHub
	conn transport.Conn
	// envelope is the reader's decode scratch (readLoop only).
	envelope []routedEntry

	mu   sync.Mutex
	cond *sync.Cond // wakes writeLoop: data queued, control queued, stop
	// routes holds the link's routes by ID until their last loop exits.
	routes map[uint64]*hubRoute
	// ready is the round-robin drain order: routes with queued
	// supervisor-bound frames, each present at most once (inReady).
	ready []*hubRoute
	// ctrl queues hub-originated control frames (credits, close notices),
	// sent ahead of data.
	ctrl []transport.Message
	// entries and acct are writeLoop's envelope scratch: filled by
	// gatherEnvelopeLocked, cleared once the envelope is encoded and its
	// egress accounted, so they pin no payload and no route in between.
	entries []routedEntry
	acct    []routeEgress
	// failed: the link is quarantined — all queues dropped, no more sends.
	// stopWriter: writeLoop exits once set and drained (set by failure and
	// by clean shutdown).
	failed     bool
	stopWriter bool
}

// hubRoute is one supervisor↔worker route on a supLink. All mutable state
// is guarded by the link's mutex; the per-route cond wakes the route's
// worker-side loops.
type hubRoute struct {
	link   *supLink
	id     *identity
	route  uint64
	worker string

	wcond *sync.Cond // shares the link mutex
	down  transport.Conn

	toWorker frameQ // supervisor → worker
	toSup    frameQ // worker → supervisor

	state     int
	bindTimer *time.Timer
	inReady   bool
	// noticeDue/noticeSent sequence the hub→supervisor close notice: due
	// once the worker side ended while the supervisor side is still alive,
	// sent after toSup drains.
	noticeDue  bool
	noticeSent bool
	// toWorkerCredit is the receiver-side ledger of the supervisor→worker
	// direction: the hub extends credit to the supervisor and grants more
	// as the worker-side writer drains toWorker, sizing the window
	// adaptively from the observed drain rate.
	toWorkerCredit creditLedger
	// supCredit is the hub's send budget on the worker→supervisor
	// direction, granted by the SupervisorMux as the route's consumer
	// drains its inbox.
	supCredit int64
	// supStalled marks the route parked out of the ready ring for lack of
	// supervisor credit; re-entered when the next grant arrives.
	supStalled bool
	// loops counts the route's live worker-side goroutines; the last one to
	// exit removes the route from the link's map.
	loops int
}

// attachSupervisorLink starts the two loops of a freshly helloed
// supervisor link; its routes arrive as open hellos.
func (h *BrokerHub) attachSupervisorLink(conn transport.Conn) error {
	l := &supLink{hub: h, conn: conn, routes: make(map[uint64]*hubRoute)}
	l.cond = sync.NewCond(&l.mu)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return ErrBrokerClosed
	}
	h.links[l] = struct{}{}
	h.pumps.Add(2)
	h.mu.Unlock()
	go l.readLoop()
	go l.writeLoop()
	return nil
}

// bind attaches a parked worker link to the route and starts the route's
// worker-side writer (the link's reader is already running). Called under
// the hub mutex with the hub open; reports false if the route is no longer
// pending.
//
//gridlint:credit a route starting is the bind event the binds counter measures
func (r *hubRoute) bind(wl *workerLink) bool {
	l := r.link
	l.mu.Lock()
	if r.state != routePending {
		l.mu.Unlock()
		return false
	}
	r.state = routeActive
	r.down = wl.conn
	if r.bindTimer != nil {
		r.bindTimer.Stop()
		r.bindTimer = nil
	}
	r.loops = 2
	l.mu.Unlock()
	r.id.binds.Add(1)
	wl.route = r
	l.hub.bound.Broadcast()
	l.hub.pumps.Add(1)
	go r.workerWriteLoop()
	return true
}

// fail quarantines one route: both queues dropped, the worker link closed,
// and — when the supervisor side is alive — a close notice queued so its
// session sees the route end. The link and every other route keep running.
func (r *hubRoute) fail(supAlive bool) {
	l := r.link
	l.mu.Lock()
	if r.state == routeDead {
		l.mu.Unlock()
		return
	}
	down := r.down
	r.teardownLocked()
	if supAlive && !r.noticeSent && !l.failed && !l.stopWriter {
		l.queueNoticeLocked(r)
	}
	l.mu.Unlock()
	if down != nil {
		_ = down.Close()
	}
}

// teardownLocked marks the route dead, wakes everything parked on it, and
// — unless a worker-side loop still has to observe the teardown — retires
// its ID so late entries addressed to it are orphans.
func (r *hubRoute) teardownLocked() {
	r.state = routeDead
	r.toWorker.drop()
	r.toSup.drop()
	if r.bindTimer != nil {
		r.bindTimer.Stop()
		r.bindTimer = nil
	}
	if r.loops == 0 {
		delete(r.link.routes, r.route)
	}
	r.wcond.Broadcast()
	r.link.cond.Broadcast()
}

// queueNoticeLocked queues the hub→supervisor close notice for a route and
// finalizes it: everything the worker sent has been relayed.
func (l *supLink) queueNoticeLocked(r *hubRoute) {
	r.noticeSent = true
	r.noticeDue = false
	l.queueCloseLocked(r.worker, r.route)
	if r.state != routeDead {
		r.teardownLocked()
	}
}

// queueCloseLocked queues a close hello for the link's writer.
func (l *supLink) queueCloseLocked(worker string, route uint64) {
	l.ctrl = append(l.ctrl, transport.Message{
		Type:    msgHello,
		Payload: encodeHello(helloMsg{Role: helloRoleClose, Worker: worker, Route: route}),
	})
	l.cond.Broadcast()
}

// loopDone retires one worker-side goroutine; the last one out removes a
// dead route from the link's map.
func (r *hubRoute) loopDone() {
	l := r.link
	l.mu.Lock()
	r.loops--
	if r.loops == 0 && r.state == routeDead {
		delete(l.routes, r.route)
	}
	l.mu.Unlock()
}

// fail quarantines the whole physical link — every route torn down, every
// endpoint closed — for faults that cannot be attributed to a single route:
// a corrupt frame on the shared link, a protocol violation, or a dead
// physical connection.
func (l *supLink) fail() {
	l.mu.Lock()
	if l.failed {
		l.mu.Unlock()
		return
	}
	l.failed = true
	l.stopWriter = true
	var downs []transport.Conn
	dead := make([]*hubRoute, 0, len(l.routes))
	for _, r := range l.routes {
		if r.down != nil {
			downs = append(downs, r.down)
		}
		dead = append(dead, r)
		r.teardownLocked()
	}
	l.ready = nil
	l.ctrl = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, c := range downs {
		_ = c.Close()
	}
	_ = l.conn.Close()
	l.hub.unpark(dead)
}

// cleanShutdown handles the supervisor endpoint closing the physical link
// cleanly: every route drains what the hub already accepted toward its
// worker (matching the direct transport's drain-after-close delivery),
// while the supervisor-bound direction is discarded — the peer is gone.
func (l *supLink) cleanShutdown() {
	l.mu.Lock()
	if l.failed {
		l.mu.Unlock()
		return
	}
	l.stopWriter = true
	var dead []*hubRoute
	for _, r := range l.routes {
		switch r.state {
		case routePending:
			dead = append(dead, r)
			r.teardownLocked()
		case routeActive:
			r.supervisorDoneLocked()
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	_ = l.conn.Close()
	l.hub.unpark(dead)
}

// supervisorDoneLocked ends an active route's supervisor side cleanly:
// what the hub holds toward the worker still drains, the return direction
// is discarded and no close notice is owed.
func (r *hubRoute) supervisorDoneLocked() {
	r.toWorker.closed = true
	r.toSup.drop()
	r.noticeDue = false
	r.wcond.Broadcast()
}

// readLoop is the physical link's only reader: it ingests mux envelopes,
// open/close hellos and credit grants, and parks data on per-route queues.
// It never blocks on a route's queue (credits bound those), so one slow
// worker cannot head-of-line-block the link.
//
//gridlint:credit corrupt-frame bytes are credited as they leave the source link
func (l *supLink) readLoop() {
	h := l.hub
	defer func() {
		h.mu.Lock()
		delete(h.links, l)
		h.mu.Unlock()
		h.pumps.Done()
	}()
	for {
		before := l.conn.Stats().BytesRecv()
		msg, err := l.conn.Recv()
		arrived := l.conn.Stats().BytesRecv() - before
		ok := false
		switch {
		case errors.Is(err, io.EOF), errors.Is(err, transport.ErrClosed):
			l.cleanShutdown()
			return
		case errors.Is(err, transport.ErrFrameCorrupt):
			// No route tag survived, so the damage is the link's.
			h.muxCorruptFrames.Add(1)
			h.muxCorruptBytes.Add(arrived)
		case err != nil:
			// Any other read error: the physical link is dead.
		case msg.Type == msgRouted:
			ok = l.ingestEnvelope(msg, arrived)
		case msg.Type == msgHello:
			ok = l.handleHello(msg, arrived)
		case msg.Type == msgCredit:
			ok = l.applyRouteGrant(msg, arrived)
		default:
			// Raw data frames are not valid on a supervisor link.
			h.muxOverheadIn.Add(arrived)
		}
		if !ok {
			l.fail()
			return
		}
	}
}

// applyRouteGrant ingests a supervisor→hub credit grant: the mux returns
// credit as a route's consumer drains its inbox, and the hub spends it in
// gatherEnvelopeLocked. A stalled route re-enters the ready ring here.
// Reports false when the grant was malformed or overflowing.
//
//gridlint:credit control ingress and per-route grant ledgers are only observable at the link reader
func (l *supLink) applyRouteGrant(msg transport.Message, arrived int64) bool {
	h := l.hub
	c, err := decodeCredit(msg.Payload)
	if err != nil {
		h.muxOverheadIn.Add(arrived)
		return false
	}
	h.ctrlMsgsIn.Add(1)
	h.ctrlBytesIn.Add(arrived)
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.routes[c.Route]
	if r == nil || r.state == routeDead {
		// Grants race close notices; a grant for a finished route is stale,
		// not hostile.
		return true
	}
	r.supCredit += int64(c.Bytes)
	if r.supCredit > maxCreditGrant {
		// More credit than any honest window can extend: the peer is
		// inflating the hub's send budget, likely probing for overflow.
		return false
	}
	r.id.toSupGranted.Add(int64(c.Bytes))
	if r.supStalled {
		r.supStalled = false
		if !r.toSup.empty() {
			l.enqueueReadyLocked(r)
		}
	}
	return true
}

// ingestEnvelope distributes a mux envelope's entries onto route queues.
// Reports false when the envelope was malformed or overran a route's
// credit.
//
//gridlint:credit envelope ingress is attributed inner-frame-exact as it arrives
func (l *supLink) ingestEnvelope(msg transport.Message, arrived int64) bool {
	h := l.hub
	entries, err := decodeRouted(l.envelope[:0], msg.Payload)
	if err != nil {
		// The frame passed the transport CRC, so this is a peer protocol
		// violation, not line noise; the link is done either way.
		h.muxOverheadIn.Add(arrived)
		return false
	}
	transport.RecyclePayload(msg.Payload)
	defer func() {
		clear(entries)
		l.envelope = entries[:0]
	}()
	var inner int64
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range entries {
		size := e.innerFrameSize()
		inner += size
		r := l.routes[e.Route]
		if r == nil || r.state == routeDead {
			h.orphanFrames.Add(1)
			h.orphanBytes.Add(size)
			continue
		}
		if !r.toWorkerCredit.arrive(size) {
			// The peer is ignoring the credit protocol; that is a link-level
			// violation (the shared reader must never block on one route).
			// What the envelope carried up to here is already attributed;
			// the rest of the frame is overhead.
			h.muxOverheadIn.Add(arrived - inner + size)
			return false
		}
		r.id.toWorker.ingressMsgs.Add(1)
		r.id.toWorker.ingressBytes.Add(size)
		if r.toWorker.put(transport.Message{Type: e.Type, Payload: e.Payload}) {
			r.wcond.Broadcast()
		} else {
			h.orphanFrames.Add(1)
			h.orphanBytes.Add(size)
		}
	}
	h.muxOverheadIn.Add(arrived - inner)
	return true
}

// handleHello processes an open or close hello. Reports false when the
// hello was invalid.
//
//gridlint:credit route handshake bytes are only observable at the link reader
func (l *supLink) handleHello(msg transport.Message, arrived int64) bool {
	h := l.hub
	hello, err := decodeHello(msg.Payload)
	if err != nil {
		h.muxOverheadIn.Add(arrived)
		return false
	}
	switch hello.Role {
	case helloRoleOpen:
		id := h.identityFor(hello.Worker)
		if id == nil {
			// Identity capacity: refuse the route, keep the link.
			h.muxOverheadIn.Add(arrived)
			l.mu.Lock()
			if !l.failed && !l.stopWriter {
				l.queueCloseLocked(hello.Worker, hello.Route)
			}
			l.mu.Unlock()
			return true
		}
		id.supervisorHelloBytes.Add(arrived)
		l.mu.Lock()
		if _, dup := l.routes[hello.Route]; dup || l.failed {
			l.mu.Unlock()
			return false
		}
		// Both credit directions start at the adaptive floor: the hub
		// extends initialCreditWindow to the supervisor (toWorkerCredit)
		// and assumes the mux extended the same to it (supCredit) — which
		// holds because both endpoints are configured with the same ceiling.
		r := &hubRoute{
			link: l, id: id, route: hello.Route, worker: hello.Worker, state: routePending,
			toWorkerCredit: newCreditLedger(h.cfg.creditWindow),
			supCredit:      initialCreditWindow(h.cfg.creditWindow),
		}
		r.wcond = sync.NewCond(&l.mu)
		l.routes[hello.Route] = r
		l.mu.Unlock()
		h.routesOpened.Add(1)
		h.scheduleBind(r)
		return true
	case helloRoleClose:
		l.mu.Lock()
		r := l.routes[hello.Route]
		if r == nil {
			l.mu.Unlock()
			h.muxOverheadIn.Add(arrived)
			return true
		}
		r.id.supervisorHelloBytes.Add(arrived)
		var dead []*hubRoute
		switch r.state {
		case routePending:
			dead = append(dead, r)
			r.teardownLocked()
		case routeActive:
			// The supervisor is done sending: drain toward the worker.
			r.supervisorDoneLocked()
			l.cond.Broadcast()
		}
		l.mu.Unlock()
		h.unpark(dead)
		return true
	default:
		// Worker and mux hellos open links; they are invalid mid-link.
		h.muxOverheadIn.Add(arrived)
		return false
	}
}

// writeLoop is the physical link's only writer. Control frames (credits,
// close notices) go first; then data is drained route by route in rotating
// round-robin order, with consecutive batch frames of the same route
// coalesced and units from several routes packed into one envelope, so
// re-batching spans workers, not just tasks.
//
//gridlint:credit relay egress, control, and envelope-overhead bytes are credited after the onward send succeeds
func (l *supLink) writeLoop() {
	h := l.hub
	defer h.pumps.Done()
	for {
		l.mu.Lock()
		for !l.stopWriter && len(l.ctrl) == 0 && len(l.ready) == 0 {
			l.cond.Wait()
		}
		if l.stopWriter && (l.failed || (len(l.ctrl) == 0 && len(l.ready) == 0)) {
			l.mu.Unlock()
			return
		}
		var out transport.Message
		var egress []routeEgress
		isCtrl := len(l.ctrl) > 0
		if isCtrl {
			out = l.ctrl[0]
			l.ctrl = l.ctrl[1:]
		} else {
			var entries []routedEntry
			if entries, egress = l.gatherEnvelopeLocked(); len(entries) == 0 {
				l.mu.Unlock()
				continue
			}
			out = transport.Message{Type: msgRouted, Payload: encodeRouted(entries)}
			clear(entries)
		}
		l.mu.Unlock()
		if err := l.conn.Send(out); err != nil {
			l.fail()
			return
		}
		if isCtrl {
			h.ctrlMsgs.Add(1)
			h.ctrlBytes.Add(out.FrameSize())
			continue
		}
		var inner int64
		for _, e := range egress {
			inner += e.inner
			e.r.id.toSupervisor.egressMsgs.Add(1)
			e.r.id.toSupervisor.egressBytes.Add(e.inner)
		}
		h.relayedMsgs.Add(1)
		h.relayedBytes.Add(out.FrameSize())
		h.muxOverheadOut.Add(out.FrameSize() - inner)
		clear(egress)
	}
}

// routeEgress attributes one sent unit to its route (inner frame size).
type routeEgress struct {
	r     *hubRoute
	inner int64
}

// popUnitLocked pops the head route's next supervisor-bound unit, merging
// the batch frames queued behind it, and reports whether there was one.
func (l *supLink) popUnitLocked(r *hubRoute) (transport.Message, bool) {
	l.dequeueReadyLocked(r)
	first, ok := r.toSup.pop()
	if ok {
		first = r.toSup.coalesce(first, min(maxBatchPayload, muxInnerPayloadCap))
		r.wcond.Broadcast() // the worker link's reader may be waiting for room
	}
	if !r.toSup.empty() {
		l.enqueueReadyLocked(r)
	} else if r.noticeDue && !r.noticeSent && r.toSup.closed {
		// Everything the worker sent has been relayed: the close notice
		// that was waiting for the drain goes out.
		l.queueNoticeLocked(r)
	}
	return first, ok
}

// gatherEnvelopeLocked packs units from the ready routes, round-robin, into
// one envelope up to the batch target. A route out of supervisor credit is
// parked out of the ready ring instead of blocking the gather — the shared
// writer keeps draining its siblings, and applyRouteGrant re-enqueues the
// route when its consumer catches up. The credit check precedes the pop
// and the debit follows it, so a route may overshoot its grant by at most
// one unit — the slack the mux's ledger tolerates by design.
//
//gridlint:credit stall parks and per-route send budgets live in the gather loop
func (l *supLink) gatherEnvelopeLocked() ([]routedEntry, []routeEgress) {
	entries, acct := l.entries[:0], l.acct[:0]
	var total int64
	for len(l.ready) > 0 && total < batchTargetBytes && len(entries) < maxRoutedEntries {
		r := l.ready[0]
		if r.supCredit <= 0 {
			l.dequeueReadyLocked(r)
			r.supStalled = true
			r.id.toSupStalls.Add(1)
			continue
		}
		unit, ok := l.popUnitLocked(r)
		if !ok {
			continue
		}
		r.supCredit -= unit.FrameSize()
		entries = append(entries, routedEntry{Route: r.route, Type: unit.Type, Payload: unit.Payload})
		acct = append(acct, routeEgress{r: r, inner: unit.FrameSize()})
		total += unit.FrameSize()
	}
	l.entries, l.acct = entries, acct
	return entries, acct
}

// enqueueReadyLocked appends the route to the round-robin drain order once.
func (l *supLink) enqueueReadyLocked(r *hubRoute) {
	if r.inReady || r.state == routeDead {
		return
	}
	r.inReady = true
	l.ready = append(l.ready, r)
	l.cond.Broadcast()
}

// dequeueReadyLocked removes the route from the head of the drain order.
func (l *supLink) dequeueReadyLocked(r *hubRoute) {
	if len(l.ready) > 0 && l.ready[0] == r {
		l.ready = l.ready[1:]
		r.inReady = false
	}
}

// fromWorker handles one result of the bound worker link's reader: a frame
// is queued for the supervisor link's writer — a full queue blocks here, so
// backpressure lands on the worker's own link, never on the shared one — a
// clean end of the link closes the route's worker side, and any other
// error quarantines the route. Reports whether the reader should go on.
//
//gridlint:credit worker-leg ingress and corrupt-frame bytes are credited as they leave the source link
func (r *hubRoute) fromWorker(msg transport.Message, arrived int64, err error) bool {
	switch {
	case err == nil:
	case errors.Is(err, io.EOF), errors.Is(err, transport.ErrClosed):
		r.workerSideClosed()
		return false
	default:
		if errors.Is(err, transport.ErrFrameCorrupt) {
			r.id.corruptFrames.Add(1)
			r.id.corruptBytes.Add(arrived)
		}
		r.fail(true)
		return false
	}
	r.id.toSupervisor.ingressMsgs.Add(1)
	r.id.toSupervisor.ingressBytes.Add(arrived)
	l := r.link
	l.mu.Lock()
	for r.toSup.bytes >= toSupQueueBytes && !r.toSup.closed && !r.toSup.discard {
		r.wcond.Wait()
	}
	if r.toSup.put(msg) {
		l.enqueueReadyLocked(r)
	}
	l.mu.Unlock()
	return true
}

// workerSideClosed handles the participant ending its link cleanly: the
// supervisor-bound queue drains, then the supervisor gets a close notice.
func (r *hubRoute) workerSideClosed() {
	l := r.link
	l.mu.Lock()
	if r.state == routeDead {
		l.mu.Unlock()
		return
	}
	r.toSup.closed = true
	// The worker is gone, so frames still queued toward it are
	// undeliverable.
	r.toWorker.drop()
	switch {
	case r.toWorker.closed || l.stopWriter:
		// The supervisor side already finished (route close or link
		// shutdown): nothing is left to relay in either direction and no
		// notice is owed.
		r.teardownLocked()
	case r.toSup.empty():
		l.queueNoticeLocked(r)
	default:
		r.noticeDue = true
	}
	r.wcond.Broadcast()
	l.mu.Unlock()
	_ = r.down.Close()
}

// workerWriteLoop is the worker link's writer for one bound route: it
// drains the route's supervisor→worker queue, coalescing consecutive batch
// frames, and grants credit back as bytes leave the queue.
//
//gridlint:credit relay egress toward the worker and the grant ledger are credited where the queue drains
func (r *hubRoute) workerWriteLoop() {
	l := r.link
	h := l.hub
	defer h.pumps.Done()
	defer r.loopDone()
	for {
		l.mu.Lock()
		for r.toWorker.empty() && !r.toWorker.closed && !r.toWorker.discard {
			r.wcond.Wait()
		}
		before := r.toWorker.bytes
		out, ok := r.toWorker.pop()
		if !ok {
			// Dropped, or closed and drained: in the latter case the
			// supervisor side ended cleanly and everything it sent was
			// delivered — finish the worker leg.
			l.mu.Unlock()
			_ = r.down.Close()
			return
		}
		out = r.toWorker.coalesce(out, maxBatchPayload)
		r.toWorkerCredit.drain(before - r.toWorker.bytes)
		if !l.failed && !l.stopWriter && !r.toWorker.closed {
			if grant := r.toWorkerCredit.grantDue(r.toWorker.bytes); grant > 0 {
				r.id.toWorkerGranted.Add(grant)
				l.ctrl = append(l.ctrl, transport.Message{
					Type:    msgCredit,
					Payload: encodeCredit(creditMsg{Route: r.route, Bytes: uint64(grant)}),
				})
				l.cond.Broadcast()
			}
		}
		l.mu.Unlock()
		if err := r.down.Send(out); err != nil {
			r.fail(true)
			return
		}
		r.id.toWorker.egressMsgs.Add(1)
		r.id.toWorker.egressBytes.Add(out.FrameSize())
		h.relayedMsgs.Add(1)
		h.relayedBytes.Add(out.FrameSize())
	}
}

// Close tears down every link, route, and registered worker and blocks
// until all hub goroutines have exited, so the counters are final on
// return.
func (h *BrokerHub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.pumps.Wait()
		return nil
	}
	h.closed = true
	var parked []*workerLink
	for _, id := range h.ids {
		if id.parked != nil {
			id.parked.gone = true
			parked = append(parked, id.parked)
		}
		id.parked, id.waiting = nil, nil
	}
	h.bound.Broadcast()
	links := make([]*supLink, 0, len(h.links))
	for l := range h.links {
		links = append(links, l)
	}
	h.mu.Unlock()
	for _, wl := range parked {
		_ = wl.conn.Close()
	}
	for _, l := range links {
		l.fail()
	}
	h.pumps.Wait()
	return nil
}
