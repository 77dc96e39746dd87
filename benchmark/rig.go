package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"uncheatgrid/internal/grid"
	"uncheatgrid/internal/transport"
)

// rig is one instance of a workload's topology: the participants, the links
// to them, and (when brokered) the hub and the one muxed supervisor link.
// It is driven from one goroutine; the participants' serve loops are the
// only goroutines it owns, and hangup/close wait for them.
type rig struct {
	spec *workloadSpec
	tr   *tracer // nil when tracing is off
	span int     // parent of the spans the rig records

	// cheaters is how many semi-honest participants follow the honest ones
	// (conformance phase only).
	cheaters int
	seed     uint64
	ckptDir  string // participants persist checkpoints here when set

	parts    []*grid.Participant
	listener *transport.Listener
	hub      *grid.BrokerHub
	mux      *grid.SupervisorMux

	// Current dial: session-level connections (what the pool drives), the
	// supervisor's physical endpoints under them, the participant ends, and
	// the serve loops running on those.
	conns    []transport.Conn
	supPhys  []transport.Conn
	partEnds []transport.Conn
	serving  sync.WaitGroup
	serveMu  sync.Mutex
	serveErr error

	// Traffic of links already hung up, so totals cover every dial.
	physWire, sessWire int64

	bindNanos int64 // time spent opening routes (brokered)
}

// participantID names the i-th participant; checkpoint files are keyed by
// it, so a pool rebuilt after a crash must reuse the names.
func participantID(i int) string { return fmt.Sprintf("p%d", i) }

// build completes r — spec, tracer, seed, cheaters and checkpoint directory
// set by the caller — by building the participants and dialing every link
// once. The caller closes r whether or not build succeeds.
func (r *rig) build() error {
	if err := r.buildParticipants(); err != nil {
		return err
	}
	var err error
	switch r.spec.link {
	case linkTCP:
		if r.listener, err = transport.Listen("127.0.0.1:0"); err != nil {
			return err
		}
	case linkBroker:
		r.hub = grid.NewBrokerHub()
	}
	return r.dial()
}

// buildParticipants creates a fresh pool: honest workers first, then the
// conformance phase's semi-honest ones.
func (r *rig) buildParticipants() error {
	var opts []grid.ParticipantOption
	if r.ckptDir != "" {
		opts = append(opts, grid.WithCheckpointDir(r.ckptDir))
	}
	total := r.spec.participants + r.cheaters
	r.parts = make([]*grid.Participant, total)
	for i := range r.parts {
		factory := grid.ProducerFactory(grid.HonestFactory)
		if i >= r.spec.participants {
			factory = grid.SemiHonestFactory(conformHonesty, r.seed*1000+uint64(i))
		}
		p, err := grid.NewParticipant(participantID(i), factory, opts...)
		if err != nil {
			return err
		}
		r.parts[i] = p
	}
	return nil
}

// isCheater reports whether the i-th connection leads to a semi-honest
// participant.
func (r *rig) isCheater(i int) bool { return i >= r.spec.participants }

// serve runs p's serve loop on conn until the link closes.
func (r *rig) serve(p *grid.Participant, conn transport.Conn) {
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		if err := p.Serve(conn); err != nil {
			r.serveMu.Lock()
			if r.serveErr == nil {
				r.serveErr = err
			}
			r.serveMu.Unlock()
		}
	}()
}

// dial opens one fresh link per participant and starts a serve loop on each
// participant end. Every stream needs fresh links: a participant's session
// loop ends only when its connection closes.
func (r *rig) dial() error {
	n := len(r.parts)
	r.conns = make([]transport.Conn, 0, n)
	r.supPhys = r.supPhys[:0]
	r.partEnds = r.partEnds[:0]
	switch r.spec.link {
	case linkPipe:
		for _, p := range r.parts {
			sup, part := transport.Pipe(transport.WithBuffer(8))
			r.addDirect(p, sup, part)
		}
	case linkTCP:
		for _, p := range r.parts {
			sup, err := transport.Dial(r.listener.Addr())
			if err != nil {
				return err
			}
			part, err := r.listener.Accept()
			if err != nil {
				_ = sup.Close()
				return err
			}
			r.addDirect(p, sup, part)
		}
	case linkBroker:
		return r.dialBrokered()
	}
	return nil
}

func (r *rig) addDirect(p *grid.Participant, sup, part transport.Conn) {
	part = r.tr.wrap(rolePart, part)
	r.supPhys = append(r.supPhys, sup)
	r.partEnds = append(r.partEnds, part)
	r.conns = append(r.conns, r.tr.wrap(roleSup, sup))
	r.serve(p, part)
}

// dialBrokered registers every participant on a clean pipe leg behind the
// hub, then opens one route per participant over ONE physical supervisor
// link. Registration is synchronous (Attach reads the hello), so a route's bind
// never waits for its worker.
func (r *rig) dialBrokered() error {
	for _, p := range r.parts {
		hubDown, part := transport.Pipe(transport.WithBuffer(8))
		part = r.tr.wrap(rolePart, part)
		if err := grid.HelloWorker(part, p.ID()); err != nil {
			return err
		}
		if err := r.hub.Attach(r.tr.wrap(roleHubDown, hubDown)); err != nil {
			return err
		}
		r.partEnds = append(r.partEnds, part)
		r.serve(p, part)
	}
	sup, hubUp := transport.Pipe(transport.WithBuffer(8))
	r.supPhys = append(r.supPhys, sup)
	hubSide := r.tr.wrap(roleHubUp, hubUp)
	attached := make(chan error, 1)
	go func() { attached <- r.hub.Attach(hubSide) }()
	mux, err := grid.OpenMux(r.tr.wrap(roleSup, sup), "supervisor")
	if err != nil {
		return err
	}
	r.mux = mux
	if err := <-attached; err != nil {
		return err
	}
	for _, p := range r.parts {
		bind := r.tr.begin("bind", r.span, -1)
		start := time.Now()
		route, err := mux.OpenRoute(p.ID())
		r.bindNanos += int64(time.Since(start))
		r.tr.end(bind)
		if err != nil {
			return err
		}
		r.conns = append(r.conns, r.tr.wrap(roleRoute, route))
	}
	return nil
}

// crash severs every current link at both ends, the way a dying worker
// process would: serve loops exit on transport errors and in-flight
// exchanges are lost. Checkpoint files stay.
func (r *rig) crash() {
	for _, c := range r.partEnds {
		_ = c.Close()
	}
	for _, c := range r.supPhys {
		_ = c.Close()
	}
}

// hangup closes the current links, waits for their serve loops and banks
// the links' traffic. It returns the first serve error; after a crash the
// caller expects one and drops it.
//
//gridlint:credit traffic of finished links is banked once, when they are hung up
func (r *rig) hangup() error {
	if r.hub != nil {
		_ = r.hub.Close()
	}
	if r.mux != nil {
		_ = r.mux.Close()
	}
	for _, c := range r.conns {
		_ = c.Close()
	}
	for _, c := range r.supPhys {
		_ = c.Close()
	}
	r.serving.Wait()
	for _, c := range r.supPhys {
		st := c.Stats()
		r.physWire += st.BytesSent() + st.BytesRecv()
	}
	for _, c := range r.conns {
		st := c.Stats()
		r.sessWire += st.BytesSent() + st.BytesRecv()
	}
	r.conns, r.supPhys, r.partEnds = nil, nil, nil
	r.serveMu.Lock()
	err := r.serveErr
	r.serveErr = nil
	r.serveMu.Unlock()
	return err
}

// close hangs up and releases the listener.
func (r *rig) close() {
	_ = r.hangup()
	if r.listener != nil {
		_ = r.listener.Close()
	}
}

// fevals sums the participants' evaluations of f.
func (r *rig) fevals() int64 {
	var n int64
	for _, p := range r.parts {
		n += p.Totals().FEvals
	}
	return n
}

// scratchDir creates a fresh directory for one run's checkpoint files.
func scratchDir(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}
