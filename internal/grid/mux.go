package grid

// Supervisor-side route multiplexing.
//
// The hub (broker.go) runs one reader and one writer per physical
// supervisor link no matter how many routes ride it; this file is the
// matching supervisor endpoint. A SupervisorMux owns one physical
// supervisor↔hub connection attached with a mux hello and opens any number
// of named routes over it. Each route is a transport.Conn — the session,
// pool, and stream layers use it exactly like a direct connection — whose
// frames travel inside msgRouted envelopes:
//
//	supervisor                         hub
//	  session A ──┐                ┌── route A ── worker A
//	  session B ──┤ one phys link  ├── route B ── worker B
//	  session C ──┘   (msgRouted)  └── route C ── worker C
//
// Flow control is credit-based, per route, and symmetric. Sending: a
// route starts with a floor of send budget (the adaptive window's initial
// value, denominated in inner frame sizes), spends it as it
// sends, and is replenished by msgCredit grants the hub issues as the
// worker-side writer drains the route's queue — a route that outruns its
// slow worker blocks in Send while every other route keeps flowing.
// Receiving: the mux extends the same kind of credit to the hub per
// route, charges every delivered inner frame against it, and grants more
// as the route's consumer drains its inbox — so a route whose consumer
// stalls caps its own inbox at one adaptive window while the shared
// reader keeps delivering to its siblings, and the hub parks (not blocks)
// the starved route. Grants are written by a dedicated grant-writer
// goroutine so a consumer draining its inbox never contends with data
// senders for the physical link. Backpressure never idles the shared link
// in either direction.
//
// Route conns keep honest endpoint counters via Stats().CreditSend/Recv,
// denominated in inner frame sizes — what their frames cost outside the
// envelope — so per-route accounting reconciles exactly with the hub's
// RouteStats; envelope framing differences live in the hub's overhead
// ledgers.

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"uncheatgrid/internal/transport"
)

// ErrMuxClosed is returned for operations on a closed SupervisorMux.
var ErrMuxClosed = errors.New("grid: supervisor mux closed")

// muxConfig collects OpenMux options.
type muxConfig struct {
	creditWindow int64
}

// MuxOption configures OpenMux. Options both link endpoints must agree on
// (see WithRouteCreditWindow) also implement BrokerOption.
type MuxOption interface {
	applyMux(*muxConfig)
}

// SupervisorMux multiplexes any number of supervisor↔worker routes over one
// physical hub link. Open routes with OpenRoute; each is an independent
// transport.Conn. Safe for concurrent use by any number of route owners.
type SupervisorMux struct {
	conn         transport.Conn
	creditWindow int64

	// sendMu serializes writes to the shared physical link (the transport
	// contract allows one concurrent sender); it is a leaf lock — nothing
	// else is acquired under it.
	sendMu sync.Mutex

	mu      sync.Mutex
	routes  map[uint64]*muxRouteConn
	nextID  uint64
	closed  bool
	linkErr error
	// pendingGrants queues credit grants for the grant-writer goroutine;
	// grantStop tells it to exit once the queue is flushed or the link is
	// down. Guarded by mu, woken via grantCond.
	pendingGrants []creditMsg
	grantStop     bool
	grantCond     *sync.Cond

	// The ledgers; MuxSnapshot documents each.
	orphanFrames, orphanBytes     atomic.Int64
	grantFrames, grantWireBytes   atomic.Int64
	creditGranted, creditReceived atomic.Int64

	readerDone chan struct{}
	grantsDone chan struct{}
}

// OpenMux attaches conn to a BrokerHub as a multiplexed supervisor link and
// returns the mux. The label names the supervisor for diagnostics — it is
// not a worker identity and takes no slot in the hub's identity registry.
// The mux owns the connection from here on; Close it through the mux.
// Options both endpoints must agree on (WithRouteCreditWindow) must match
// what the hub was built with.
func OpenMux(conn transport.Conn, label string, opts ...MuxOption) (*SupervisorMux, error) {
	if conn == nil {
		return nil, fmt.Errorf("%w: nil connection", ErrBadConfig)
	}
	cfg := muxConfig{creditWindow: defaultCreditWindowBytes}
	for _, opt := range opts {
		opt.applyMux(&cfg)
	}
	if err := sendHello(conn, helloMsg{Role: helloRoleMux, Worker: label}); err != nil {
		return nil, err
	}
	m := &SupervisorMux{
		conn:         conn,
		creditWindow: cfg.creditWindow,
		routes:       make(map[uint64]*muxRouteConn),
		readerDone:   make(chan struct{}),
		grantsDone:   make(chan struct{}),
	}
	m.grantCond = sync.NewCond(&m.mu)
	go m.readLoop()
	go m.grantLoop()
	return m, nil
}

// MuxSnapshot is a SupervisorMux's accounting at one instant.
type MuxSnapshot struct {
	// OrphanFrames/Bytes count inner frames delivered for routes this
	// endpoint had already closed; inner frame bytes.
	OrphanFrames, OrphanBytes int64
	// GrantFrames counts the credit-grant control frames this endpoint
	// wrote to the link and GrantWireBytes their physical bytes; the hub
	// counts the same frames as ControlIn.
	GrantFrames, GrantWireBytes int64
	// CreditGrantedBytes is the credit this endpoint granted the hub for
	// the worker→supervisor direction, CreditReceivedBytes the credit the
	// hub granted it for the supervisor→worker direction, summed over
	// routes. They reconcile with the hub's per-route grant counters.
	CreditGrantedBytes, CreditReceivedBytes int64
}

// Snapshot returns the mux's accounting as of now.
func (m *SupervisorMux) Snapshot() MuxSnapshot {
	return MuxSnapshot{
		OrphanFrames:        m.orphanFrames.Load(),
		OrphanBytes:         m.orphanBytes.Load(),
		GrantFrames:         m.grantFrames.Load(),
		GrantWireBytes:      m.grantWireBytes.Load(),
		CreditGrantedBytes:  m.creditGranted.Load(),
		CreditReceivedBytes: m.creditReceived.Load(),
	}
}

// Failed reports whether the physical link has died (or the mux was
// closed); a failed mux opens no further routes and the owner must dial a
// fresh link.
func (m *SupervisorMux) Failed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed || m.linkErr != nil
}

// OpenRoute opens a new route to the named registered worker and returns
// its connection. The route behaves like a connection dialed to the worker
// through the hub: it binds to the worker's registration (waiting up to the
// hub's bind timeout), relays frames both ways, and surfaces route or link
// death as a closed connection that the session layer's quarantine/resume
// machinery recovers from.
func (m *SupervisorMux) OpenRoute(worker string) (transport.Conn, error) {
	if worker == "" {
		return nil, fmt.Errorf("%w: empty worker identity", ErrBadConfig)
	}
	if len(worker) > maxWorkerNameLen {
		return nil, fmt.Errorf("%w: worker identity of %d bytes (max %d)",
			ErrBadConfig, len(worker), maxWorkerNameLen)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrMuxClosed
	}
	if m.linkErr != nil {
		err := m.linkErr
		m.mu.Unlock()
		return nil, fmt.Errorf("grid: mux link down: %w", err)
	}
	id := m.nextID
	m.nextID++
	// Send credit starts at the adaptive floor — the hub extends the same
	// initial window from the shared ceiling — and the receive ledger
	// mirrors what this endpoint extends to the hub.
	r := &muxRouteConn{
		mux:    m,
		id:     id,
		worker: worker,
		credit: initialCreditWindow(m.creditWindow),
		led:    newCreditLedger(m.creditWindow),
	}
	r.cond = sync.NewCond(&r.mu)
	m.routes[id] = r
	m.mu.Unlock()
	if err := m.sendFrame(transport.Message{
		Type:    msgHello,
		Payload: encodeHello(helloMsg{Role: helloRoleOpen, Worker: worker, Route: id}),
	}); err != nil {
		m.mu.Lock()
		delete(m.routes, id)
		m.mu.Unlock()
		return nil, err
	}
	return r, nil
}

// sendFrame writes one frame to the shared physical link.
func (m *SupervisorMux) sendFrame(msg transport.Message) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	//gridlint:ignore chansendunderlock sendMu is a leaf mutex whose only job is serializing this send; no other lock or queue is touched under it
	return m.conn.Send(msg)
}

// route looks up a live route by ID.
func (m *SupervisorMux) route(id uint64) *muxRouteConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.routes[id]
}

// dropRoute forgets a locally closed route; later deliveries to the ID are
// counted as orphans.
func (m *SupervisorMux) dropRoute(id uint64) {
	m.mu.Lock()
	delete(m.routes, id)
	m.mu.Unlock()
}

// readLoop is the physical link's only reader: it distributes envelope
// entries to route inboxes, applies credit grants, and marks routes the hub
// closed. Any receive failure — or a protocol-violating frame — kills the
// whole link: damage on a shared link is not attributable to one route, the
// exact mirror of the hub's quarantine rule.
//
//gridlint:credit orphaned-delivery accounting on the shared link is only observable at its single reader
func (m *SupervisorMux) readLoop() {
	defer close(m.readerDone)
	var entries []routedEntry // decode scratch, reused across envelopes
	for {
		msg, err := m.conn.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		switch msg.Type {
		case msgRouted:
			entries, err = decodeRouted(entries[:0], msg.Payload)
			if err != nil {
				m.fail(fmt.Errorf("%w: malformed mux envelope: %v", transport.ErrClosed, err))
				return
			}
			transport.RecyclePayload(msg.Payload)
			for _, e := range entries {
				r := m.route(e.Route)
				if r == nil {
					m.orphanFrames.Add(1)
					m.orphanBytes.Add(e.innerFrameSize())
					continue
				}
				ok, violation := r.deliver(transport.Message{Type: e.Type, Payload: e.Payload})
				if violation {
					// The hub is ignoring this endpoint's credit grants — a
					// link-level protocol violation, exactly as the hub
					// classifies a credit-ignoring supervisor.
					m.fail(fmt.Errorf("%w: route %d overran its receive credit", transport.ErrClosed, e.Route))
					return
				}
				if !ok {
					m.orphanFrames.Add(1)
					m.orphanBytes.Add(e.innerFrameSize())
				}
			}
			clear(entries) // the route inboxes own the payloads now
		case msgCredit:
			c, err := decodeCredit(msg.Payload)
			if err != nil {
				m.fail(fmt.Errorf("%w: malformed credit grant: %v", transport.ErrClosed, err))
				return
			}
			if r := m.route(c.Route); r != nil {
				if !r.grant(int64(c.Bytes)) {
					m.fail(fmt.Errorf("%w: route %d send credit overflow", transport.ErrClosed, c.Route))
					return
				}
				m.creditReceived.Add(int64(c.Bytes))
			}
		case msgHello:
			hello, err := decodeHello(msg.Payload)
			if err != nil || hello.Role != helloRoleClose {
				m.fail(fmt.Errorf("%w: unexpected hello on mux link", transport.ErrClosed))
				return
			}
			if r := m.route(hello.Route); r != nil {
				r.remoteClosed()
			}
		default:
			m.fail(fmt.Errorf("%w: frame type %d invalid on mux link", transport.ErrClosed, msg.Type))
			return
		}
	}
}

// fail records the link-fatal error, closes the physical connection, and
// wakes every route with it.
func (m *SupervisorMux) fail(err error) {
	m.mu.Lock()
	if m.linkErr == nil {
		m.linkErr = err
	}
	m.grantStop = true
	m.pendingGrants = nil
	m.grantCond.Broadcast()
	routes := make([]*muxRouteConn, 0, len(m.routes))
	for _, r := range m.routes {
		routes = append(routes, r)
	}
	m.mu.Unlock()
	_ = m.conn.Close()
	for _, r := range routes {
		r.linkFailed(err)
	}
}

// Close tears down the mux: the physical link closes, every open route
// observes a dead connection, and Close blocks until the reader and the
// grant writer have exited so the mux holds no goroutines afterwards.
func (m *SupervisorMux) Close() error {
	m.mu.Lock()
	already := m.closed
	m.closed = true
	m.grantStop = true
	m.pendingGrants = nil
	m.grantCond.Broadcast()
	m.mu.Unlock()
	if !already {
		_ = m.conn.Close()
	}
	<-m.readerDone
	<-m.grantsDone
	return nil
}

// queueGrant hands one credit grant to the grant-writer goroutine. Called
// by routes after releasing their own mutex — route mutexes are leaves
// under m.mu, never the reverse.
func (m *SupervisorMux) queueGrant(g creditMsg) {
	m.mu.Lock()
	if m.grantStop || m.closed || m.linkErr != nil {
		m.mu.Unlock()
		return
	}
	m.pendingGrants = append(m.pendingGrants, g)
	m.grantCond.Broadcast()
	m.mu.Unlock()
}

// grantLoop is the mux's second and last goroutine: it writes queued
// credit grants to the shared link, so a route consumer draining its inbox
// never blocks on the physical send itself — symmetric to the hub's
// writeLoop carrying grants in its ctrl queue.
//
//gridlint:credit grant egress is only observable where the control frame is written
func (m *SupervisorMux) grantLoop() {
	defer close(m.grantsDone)
	for {
		m.mu.Lock()
		for len(m.pendingGrants) == 0 && !m.grantStop {
			m.grantCond.Wait()
		}
		if len(m.pendingGrants) == 0 {
			m.mu.Unlock()
			return
		}
		g := m.pendingGrants[0]
		m.pendingGrants = m.pendingGrants[1:]
		m.mu.Unlock()
		out := transport.Message{Type: msgCredit, Payload: encodeCredit(g)}
		if err := m.sendFrame(out); err != nil {
			m.fail(err)
			return
		}
		m.grantFrames.Add(1)
		m.grantWireBytes.Add(out.FrameSize())
		m.creditGranted.Add(int64(g.Bytes))
	}
}

// muxRouteConn is one route's supervisor endpoint: a transport.Conn whose
// frames ride the shared physical link. Send blocks while the route is out
// of credit; Recv drains the inbox the mux reader fills. Its Stats are
// credited in inner frame sizes.
type muxRouteConn struct {
	mux    *SupervisorMux
	id     uint64
	worker string
	stats  transport.Stats

	mu     sync.Mutex
	cond   *sync.Cond
	inbox  []transport.Message
	credit int64
	// led is the receive side: the credit this endpoint has extended to
	// the hub for the route's inbox, and the adaptive window sizing it.
	// queued tracks inbox occupancy in inner frame sizes.
	led    creditLedger
	queued int64
	closed bool // Close called locally
	// remote is set by the hub's close notice: the worker side of the route
	// is finished. Recv drains the inbox then reports io.EOF, mirroring a
	// direct connection's drain-after-peer-close contract.
	remote  bool
	linkErr error
}

var _ transport.Conn = (*muxRouteConn)(nil)

// Stats implements transport.Conn.
func (r *muxRouteConn) Stats() *transport.Stats { return &r.stats }

// Send implements transport.Conn: it spends route credit (blocking while
// exhausted), wraps the frame in a single-entry envelope, and writes it to
// the shared link. The debit may push the balance negative for one frame
// larger than the whole window — the hub's queue bound allows exactly that
// overshoot, so oversized-but-legal frames cannot deadlock.
func (r *muxRouteConn) Send(m transport.Message) error {
	if int64(len(m.Payload)) > muxInnerPayloadCap {
		return fmt.Errorf("%w: %d-byte payload cannot cross a multiplexed link",
			transport.ErrFrameTooLarge, len(m.Payload))
	}
	size := m.FrameSize()
	r.mu.Lock()
	for r.credit <= 0 && !r.closed && !r.remote && r.linkErr == nil {
		r.cond.Wait()
	}
	if r.closed || r.remote || r.linkErr != nil {
		r.mu.Unlock()
		return transport.ErrClosed
	}
	r.credit -= size
	r.mu.Unlock()
	payload := encodeRouted([]routedEntry{{Route: r.id, Type: m.Type, Payload: m.Payload}})
	if err := r.mux.sendFrame(transport.Message{Type: msgRouted, Payload: payload}); err != nil {
		return err
	}
	r.stats.CreditSend(size)
	return nil
}

// Recv implements transport.Conn: inbox frames first, then the route's
// terminal condition — ErrClosed after a local Close, the link error after
// a link failure, io.EOF once the hub announced the worker side finished.
// Each drain feeds the receive ledger; when a grant falls due it is handed
// to the mux's grant writer (after releasing the route mutex — the grant
// queue lives under m.mu, which is never taken under r.mu). Grants ride
// the link as control frames, not route traffic: they never touch the
// route's Stats, so per-route endpoint counters keep reconciling with the
// hub's RouteStats.
func (r *muxRouteConn) Recv() (transport.Message, error) {
	r.mu.Lock()
	for {
		if len(r.inbox) > 0 {
			m := r.inbox[0]
			r.inbox[0] = transport.Message{}
			r.inbox = r.inbox[1:]
			if len(r.inbox) == 0 {
				r.inbox = nil
			}
			size := m.FrameSize()
			r.queued -= size
			r.led.drain(size)
			var grant creditMsg
			if !r.closed && !r.remote && r.linkErr == nil {
				if g := r.led.grantDue(r.queued); g > 0 {
					grant = creditMsg{Route: r.id, Bytes: uint64(g)}
				}
			}
			r.mu.Unlock()
			r.stats.CreditRecv(size)
			if grant.Bytes > 0 {
				r.mux.queueGrant(grant)
			}
			return m, nil
		}
		switch {
		case r.closed:
			r.mu.Unlock()
			return transport.Message{}, transport.ErrClosed
		case r.linkErr != nil:
			err := r.linkErr
			r.mu.Unlock()
			return transport.Message{}, err
		case r.remote:
			r.mu.Unlock()
			return transport.Message{}, io.EOF
		}
		r.cond.Wait()
	}
}

// Close implements transport.Conn: the route is retired locally, pending
// Send/Recv calls unblock, and — when the link is still healthy — a
// best-effort close hello tells the hub to drain and retire the route.
func (r *muxRouteConn) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	notify := r.linkErr == nil && !r.remote
	r.cond.Broadcast()
	r.mu.Unlock()
	r.mux.dropRoute(r.id)
	if notify {
		_ = r.mux.sendFrame(transport.Message{
			Type:    msgHello,
			Payload: encodeHello(helloMsg{Role: helloRoleClose, Worker: r.worker, Route: r.id}),
		})
	}
	return nil
}

// deliver appends one inner frame to the inbox, charging it against the
// credit this endpoint extended. ok=false means the route is closed and
// the frame is the caller's orphan to count; violation=true means the hub
// overran the route's credit beyond the one-frame slack — the caller must
// kill the link.
func (r *muxRouteConn) deliver(m transport.Message) (ok, violation bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, false
	}
	if !r.led.arrive(m.FrameSize()) {
		return false, true
	}
	r.queued += m.FrameSize()
	r.inbox = append(r.inbox, m)
	r.cond.Broadcast()
	return true, false
}

// grant adds a hub credit grant to the send budget. False means the balance
// overflowed past any honest window — a link violation the caller must act
// on.
func (r *muxRouteConn) grant(n int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.credit += n
	r.cond.Broadcast()
	return r.credit <= maxCreditGrant
}

// remoteClosed records the hub's close notice for the route.
func (r *muxRouteConn) remoteClosed() {
	r.mu.Lock()
	r.remote = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// linkFailed records the shared link's death on the route.
func (r *muxRouteConn) linkFailed(err error) {
	r.mu.Lock()
	if r.linkErr == nil {
		r.linkErr = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}
