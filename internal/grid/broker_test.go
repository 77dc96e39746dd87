package grid

import (
	"context"
	"errors"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uncheatgrid/internal/transport"
)

// dialOneRouteMux is the smallest supervisor-side dial through a hub: sup
// and hubUp are the two ends of a fresh physical link (already wrapped with
// whatever faults or latency the test wants); the link is attached as a mux
// and its single route opened to worker. An error means the link never came
// up — on a faulty link, a garbled handshake the hub refused.
func dialOneRouteMux(hub *BrokerHub, sup, hubUp transport.Conn, worker string, opts ...MuxOption) (*SupervisorMux, transport.Conn, error) {
	attached := make(chan error, 1)
	go func() { attached <- hub.Attach(hubUp) }()
	m, err := OpenMux(sup, "sup-"+worker, opts...)
	if err != nil {
		_ = sup.Close()
		return nil, nil, err
	}
	if err := <-attached; err != nil {
		_ = m.Close()
		return nil, nil, err
	}
	route, err := m.OpenRoute(worker)
	if err != nil {
		_ = m.Close()
		return nil, nil, err
	}
	return m, route, nil
}

// mustDialOneRouteMux is dialOneRouteMux over a fresh clean pipe.
func mustDialOneRouteMux(t testing.TB, hub *BrokerHub, worker string, opts ...MuxOption) (*SupervisorMux, transport.Conn) {
	t.Helper()
	sup, hubUp := transport.Pipe(transport.WithBuffer(16))
	m, route, err := dialOneRouteMux(hub, sup, hubUp, worker, opts...)
	if err != nil {
		t.Fatalf("dial one-route mux to %s: %v", worker, err)
	}
	return m, route
}

// registerTestWorker attaches a raw worker link the test holds the far end
// of, with a send queue of the given depth on the hub→worker leg.
func registerTestWorker(t testing.TB, hub *BrokerHub, name string, buffer int) transport.Conn {
	t.Helper()
	hubDown, partConn := transport.Pipe(transport.WithBuffer(buffer))
	if err := HelloWorker(partConn, name); err != nil {
		t.Fatalf("HelloWorker(%s): %v", name, err)
	}
	if err := hub.Attach(hubDown); err != nil {
		t.Fatalf("Attach worker %s: %v", name, err)
	}
	return partConn
}

// garbleFirstEnvelope corrupts exactly one frame: the first msgRouted
// envelope sent through it. The handshakes before it go through clean, so
// the corrupt frame is certain to reach the hub on an attached link, ahead
// of every reply the traffic inside it is waiting for.
type garbleFirstEnvelope struct {
	transport.Conn
	garbler transport.Conn // the same link with every send corrupted
	done    atomic.Bool
}

func (g *garbleFirstEnvelope) Send(m transport.Message) error {
	if m.Type == msgRouted && g.done.CompareAndSwap(false, true) {
		return g.garbler.Send(m)
	}
	return g.Conn.Send(m)
}

// brokerTestWorker wires one participant to a hub the way a deployment
// harness would: every dial registers a fresh worker link under the
// participant's identity and dials a one-route mux to it, each dial its own
// physical link. A faulty worker's supervisor→hub leg is damaged, so
// corrupt frames surface at the hub — crossing the relay — rather than at
// an endpoint: the first dial loses exactly its first envelope, and every
// redial garbles each frame with probability garble under a per-dial seed.
type brokerTestWorker struct {
	t      *testing.T
	name   string
	p      *Participant
	hub    *BrokerHub
	garble float64
	seed   int64

	mu        sync.Mutex
	dials     int
	supConns  []transport.Conn
	muxes     []*SupervisorMux
	hubDowns  []transport.Conn
	hubUps    []transport.Conn
	serveErrs []chan error
}

func newBrokerTestWorker(t *testing.T, hub *BrokerHub, name string, factory ProducerFactory, garble float64, seed int64) *brokerTestWorker {
	t.Helper()
	p, err := NewParticipant(name, factory)
	if err != nil {
		t.Fatalf("NewParticipant(%s): %v", name, err)
	}
	return &brokerTestWorker{t: t, name: name, p: p, hub: hub, garble: garble, seed: seed}
}

// dial opens one identity-routed path through the hub and returns the
// supervisor-side route endpoint — a dead connection when a garbled
// handshake kept the link from coming up, which the stream treats like any
// lost link. Safe to call from the stream's redial callback.
func (w *brokerTestWorker) dial() transport.Conn {
	hubDown, partConn := transport.Pipe(transport.WithBuffer(8))
	if err := HelloWorker(partConn, w.name); err != nil {
		w.t.Errorf("HelloWorker(%s): %v", w.name, err)
	}
	if err := w.hub.Attach(hubDown); err != nil {
		w.t.Errorf("Attach worker %s: %v", w.name, err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- w.p.Serve(partConn) }()

	supConn, hubUp := transport.Pipe(transport.WithBuffer(8))
	var sup transport.Conn = supConn
	w.mu.Lock()
	attempt := w.dials
	w.dials++
	w.mu.Unlock()
	if w.garble > 0 {
		plan := transport.FaultPlan{GarbleProb: w.garble, Seed: w.seed + int64(attempt)}
		if attempt == 0 {
			plan.GarbleProb = 1
			sup = &garbleFirstEnvelope{Conn: supConn, garbler: transport.WithFaults(supConn, plan)}
		} else {
			sup = transport.WithFaults(supConn, plan)
		}
	}
	m, route, err := dialOneRouteMux(w.hub, sup, hubUp, w.name)
	if err != nil {
		route = deadConn()
	}
	w.mu.Lock()
	w.supConns = append(w.supConns, route)
	if m != nil {
		w.muxes = append(w.muxes, m)
	}
	w.hubDowns = append(w.hubDowns, hubDown)
	w.hubUps = append(w.hubUps, hubUp)
	w.serveErrs = append(w.serveErrs, serveErr)
	w.mu.Unlock()
	return route
}

// shutdown closes every route, joins the participant's serve loops, and
// closes the physical links.
func (w *brokerTestWorker) shutdown() {
	w.mu.Lock()
	conns := append([]transport.Conn(nil), w.supConns...)
	muxes := append([]*SupervisorMux(nil), w.muxes...)
	errs := append([]chan error(nil), w.serveErrs...)
	w.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	for _, ch := range errs {
		if err := <-ch; err != nil {
			w.t.Errorf("participant %s serve: %v", w.name, err)
		}
	}
	for _, m := range muxes {
		_ = m.Close()
	}
}

// endpointBytes sums the hub-side endpoint counters of the given links.
func endpointBytes(conns []transport.Conn) (recv, sent int64) {
	for _, c := range conns {
		recv += c.Stats().BytesRecv()
		sent += c.Stats().BytesSent()
	}
	return recv, sent
}

// TestBrokerHubRoutesByIdentity pins the multiplexing contract: one hub
// carries several supervisor↔worker routes at once, and each one-route
// supervisor link reaches exactly the worker its route named — proven by personas
// (the honest worker's task is accepted, the always-cheating worker's
// rejected, over interactive CBS so both relay directions are exercised).
func TestBrokerHubRoutesByIdentity(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()
	honest := newBrokerTestWorker(t, hub, "honest", HonestFactory, 0, 0)
	cheat := newBrokerTestWorker(t, hub, "cheat", SemiHonestFactory(0, 7), 0, 0)
	honestConn, cheatConn := honest.dial(), cheat.dial()

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	var wg sync.WaitGroup
	outcomes := make([]*TaskOutcome, 2)
	errs := make([]error, 2)
	for i, conn := range []transport.Conn{honestConn, cheatConn} {
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			task := syntheticTask(128)
			task.ID = uint64(i)
			outcomes[i], errs[i] = runDialogue(sup, conn, task)
		}(i, conn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("RunTask %d: %v", i, err)
		}
	}
	if !outcomes[0].Verdict.Accepted {
		t.Errorf("honest worker rejected: %s", outcomes[0].Verdict.Reason)
	}
	if outcomes[1].Verdict.Accepted {
		t.Error("always-cheating worker accepted — supervisor link routed to the wrong worker?")
	}
	snap := hub.Snapshot()
	for _, name := range []string{"honest", "cheat"} {
		st, ok := snap.Routes[name]
		if !ok || st.Binds != 1 || st.ToWorker.EgressMsgs == 0 || st.ToSupervisor.EgressMsgs == 0 {
			t.Errorf("route stats for %s: %+v (ok=%v)", name, st, ok)
		}
	}
	honest.shutdown()
	cheat.shutdown()
}

// TestBrokerUnknownWorkerBindTimesOut pins the bind contract: a route
// naming a worker that never registers is refused after the bind timeout.
// Nothing in the dial waits for the bind — Attach returns as soon as the
// mux hello is consumed, OpenRoute as soon as the open hello is sent — and
// the refusal reaches the supervisor as the route's close notice: Recv
// reports io.EOF while the physical link stays up.
func TestBrokerUnknownWorkerBindTimesOut(t *testing.T) {
	const bindTimeout = 150 * time.Millisecond
	hub := NewBrokerHub(WithBindTimeout(bindTimeout))
	defer hub.Close()
	start := time.Now()
	m, route := mustDialOneRouteMux(t, hub, "nobody")
	defer m.Close()
	if waited := time.Since(start); waited > bindTimeout/2 {
		t.Errorf("the dial blocked %v for the bind; it must return after the hellos", waited)
	}
	if _, err := route.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("refused route: Recv = %v, want io.EOF", err)
	}
	if waited := time.Since(start); waited < bindTimeout || waited > 2*time.Second {
		t.Errorf("bind refused after %v, want about the %v timeout", waited, bindTimeout)
	}
	if m.Failed() {
		t.Error("an expired bind took the physical link down with it")
	}
}

// TestBrokerSilentHandshakeTimesOut pins the accept-loop safety contract:
// a peer that connects and never sends its hello must not wedge a
// synchronous Attach — the handshake watchdog closes the link after the
// bind timeout and Attach returns a rejection.
func TestBrokerSilentHandshakeTimesOut(t *testing.T) {
	hub := NewBrokerHub(WithBindTimeout(50 * time.Millisecond))
	defer hub.Close()
	peer, hubSide := transport.Pipe()
	defer peer.Close()
	start := time.Now()
	if err := hub.Attach(hubSide); err == nil {
		t.Fatal("silent peer attached successfully")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("handshake watchdog let Attach block %v", waited)
	}
	if hub.Snapshot().RejectedLinks == 0 {
		t.Fatal("silent handshake not counted as rejected")
	}
}

// TestBrokerIdentityCapRefusesNewWorkers pins the hub's memory bound:
// identities are never evicted (their counters are the accounting record),
// so handshakes naming fresh identities past maxBrokerIdentities are
// refused — known identities keep working.
func TestBrokerIdentityCapRefusesNewWorkers(t *testing.T) {
	old := maxBrokerIdentities
	maxBrokerIdentities = 2
	defer func() { maxBrokerIdentities = old }()

	hub := NewBrokerHub()
	defer hub.Close()
	attach := func(name string) error {
		hubDown, partConn := transport.Pipe(transport.WithBuffer(8))
		if err := HelloWorker(partConn, name); err != nil {
			t.Fatalf("HelloWorker(%s): %v", name, err)
		}
		return hub.Attach(hubDown)
	}
	for _, name := range []string{"w1", "w2"} {
		if err := attach(name); err != nil {
			t.Fatalf("register %s under the cap: %v", name, err)
		}
	}
	if err := attach("w3"); err == nil {
		t.Fatal("third identity registered past a cap of 2")
	}
	if err := attach("w1"); err != nil { // known identity re-registers fine
		t.Fatalf("re-register known identity: %v", err)
	}
	snap := hub.Snapshot()
	if got := len(snap.Routes); got > 2 {
		t.Fatalf("hub tracks %d identities, cap 2", got)
	}
	if snap.RejectedLinks == 0 {
		t.Fatal("over-cap handshake not counted as rejected")
	}
}

// TestBrokerRelayBatchingCoalesces pins the relay-hop batching mechanics:
// batch frames queued behind a slow downstream send are merged into fewer,
// larger batch frames, with the tagged sub-messages delivered complete and
// in order.
func TestBrokerRelayBatchingCoalesces(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()

	// Worker link with a depth-1 queue so the hub's forwarder blocks on the
	// second send while the consumer sleeps, forcing later frames to queue.
	partConn := registerTestWorker(t, hub, "w", 1)
	m, supConn := mustDialOneRouteMux(t, hub, "w")
	defer m.Close()

	const frames = 8
	for i := 0; i < frames; i++ {
		payload := encodeBatch([]taggedMsg{{TaskID: uint64(i), Type: msgCommit, Payload: []byte{byte(i)}}})
		if err := supConn.Send(transport.Message{Type: msgBatch, Payload: payload}); err != nil {
			t.Fatalf("send frame %d: %v", i, err)
		}
	}
	time.Sleep(150 * time.Millisecond) // let everything queue behind the blocked forwarder

	var got []taggedMsg
	recvFrames := 0
	for len(got) < frames {
		msg, err := partConn.Recv()
		if err != nil {
			t.Fatalf("participant recv after %d messages: %v", len(got), err)
		}
		if msg.Type != msgBatch {
			t.Fatalf("frame type %d, want batch", msg.Type)
		}
		msgs, err := decodeBatch(nil, msg.Payload)
		if err != nil {
			t.Fatalf("merged frame undecodable: %v", err)
		}
		got = append(got, msgs...)
		recvFrames++
	}
	if recvFrames >= frames {
		t.Errorf("received %d frames for %d sent — no relay-hop coalescing happened", recvFrames, frames)
	}
	for i, tm := range got {
		if tm.TaskID != uint64(i) || tm.Type != msgCommit || len(tm.Payload) != 1 || tm.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order or damaged: %+v", i, tm)
		}
	}
	_ = supConn.Close()
	_ = hub.Close()
	st := hub.Snapshot().Routes["w"]
	if st.ToWorker.EgressMsgs >= st.ToWorker.IngressMsgs {
		t.Errorf("egress %d frames not below ingress %d despite coalescing", st.ToWorker.EgressMsgs, st.ToWorker.IngressMsgs)
	}
}

// TestBrokerDeliversQueuedFramesOnCleanClose pins the relay's delivery
// guarantee: frames the hub accepted before the supervisor side's clean
// close — of the route, or of the whole physical link — must still reach
// the worker (the direct transport drains queued messages after a close),
// not be dropped with the route. The frames are not batch frames, so the
// hub merges nothing and each is checked one for one.
func TestBrokerDeliversQueuedFramesOnCleanClose(t *testing.T) {
	closers := map[string]func(*SupervisorMux, transport.Conn){
		"route.Close": func(_ *SupervisorMux, route transport.Conn) { _ = route.Close() },
		"mux.Close":   func(m *SupervisorMux, _ transport.Conn) { _ = m.Close() },
	}
	for name, closeSupervisorSide := range closers {
		t.Run(name, func(t *testing.T) {
			hub := NewBrokerHub()
			defer hub.Close()
			partConn := registerTestWorker(t, hub, "w", 1)
			m, supConn := mustDialOneRouteMux(t, hub, "w")
			defer m.Close()

			const frames = 12
			for i := 0; i < frames; i++ {
				if err := supConn.Send(transport.Message{Type: msgVerdict, Payload: []byte{byte(i)}}); err != nil {
					t.Fatalf("send frame %d: %v", i, err)
				}
			}
			closeSupervisorSide(m, supConn) // clean close with most frames still queued at the hub
			time.Sleep(50 * time.Millisecond)

			for i := 0; i < frames; i++ {
				msg, err := partConn.Recv()
				if err != nil {
					t.Fatalf("frame %d lost to the route teardown: %v", i, err)
				}
				if len(msg.Payload) != 1 || msg.Payload[0] != byte(i) {
					t.Fatalf("frame %d out of order or damaged: %+v", i, msg)
				}
			}
			if _, err := partConn.Recv(); err == nil {
				t.Fatal("route not torn down after the drain")
			}
		})
	}
}

// TestBrokerCorruptFrameQuarantinesRouteNotHub is the fault-transparency
// regression test: a CRC-corrupt frame crossing the relay must quarantine
// only the physical link it arrived on — the supervisor redials through the
// hub, the resume handshake is re-bound to the same worker, and every task
// still completes with an accepted verdict — while an unrelated worker's
// link keeps relaying untouched. It also pins the accounting contract under
// faults: the hub's ledgers reconcile exactly with its endpoint byte
// counters on both legs.
//
// What the test proves does not depend on timing. Placement is pinned, so
// the faulty worker's first dial certainly carries tasks; that dial loses
// its first envelope, so a corrupt frame certainly crosses the relay before
// any of those tasks can finish; and they can only finish on a redial the
// hub bound to the same worker.
func TestBrokerCorruptFrameQuarantinesRouteNotHub(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()
	faulty := newBrokerTestWorker(t, hub, "faulty", HonestFactory, 0.25, 1000)
	clean := newBrokerTestWorker(t, hub, "clean", HonestFactory, 0, 0)
	workers := []*brokerTestWorker{faulty, clean}

	var mu sync.Mutex
	byConn := make(map[transport.Conn]*brokerTestWorker)
	dial := func(w *brokerTestWorker) transport.Conn {
		conn := w.dial()
		mu.Lock()
		byConn[conn] = w
		mu.Unlock()
		return conn
	}
	conns := []transport.Conn{dial(faulty), dial(clean)}

	const window = 2
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 6}, Seed: 11}, len(conns)*window)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{ID: uint64(i), Start: uint64(i) * 64, N: 64, Workload: "synthetic", Seed: 9}
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(tasks), window,
		WithPinnedPlacement(),
		WithStreamRecvTimeout(2*time.Second),
		WithMaxReconnects(200),
		WithRedial(func(old transport.Conn) (transport.Conn, error) {
			mu.Lock()
			w := byConn[old]
			mu.Unlock()
			return dial(w), nil
		}))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	count := 0
	for so := range stream.Outcomes() {
		count++
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("honest task %d rejected through broker: %s", so.Outcome.Task.ID, so.Outcome.Verdict.Reason)
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if count != len(tasks) {
		t.Fatalf("completed %d of %d tasks through the faulty broker route", count, len(tasks))
	}

	// Close the hub before joining the serve loops: a redial whose garbled
	// hello was rejected leaves an orphaned registered worker link whose
	// serve goroutine only ends when the hub releases it.
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close: %v", err)
	}
	faulty.shutdown()
	clean.shutdown()

	snap := hub.Snapshot()
	t.Logf("faulty worker: %d dials, %d corrupt frames on attached links, %d links refused at the hello",
		faulty.dials, snap.MuxCorruptFrames, snap.RejectedLinks)
	if snap.MuxCorruptFrames == 0 {
		t.Fatal("the garbled first envelope never crossed the relay")
	}
	fst, cst := snap.Routes["faulty"], snap.Routes["clean"]
	if fst.Binds < 2 {
		t.Errorf("faulty worker bound %d times, want >= 2 (resume-through-relay)", fst.Binds)
	}
	// The damage was on supervisor links, so it is the links', not a
	// worker's — and the clean worker's link saw none of it.
	if fst.CorruptFrames != 0 || cst.CorruptFrames != 0 || cst.Binds != 1 {
		t.Errorf("supervisor-link damage leaked into per-worker stats: faulty %+v, clean %+v", fst, cst)
	}
	clean.mu.Lock()
	cleanDials := clean.dials
	clean.mu.Unlock()
	if cleanDials != 1 {
		t.Errorf("clean worker redialed %d times; its route should have survived", cleanDials-1)
	}

	// Exact accounting, leg by leg: everything the hub-side endpoints ever
	// received or sent is in a ledger.
	var upRecv, upSent, downRecv, downSent int64
	for _, w := range workers {
		r, s := endpointBytes(w.hubUps)
		upRecv, upSent = upRecv+r, upSent+s
		r, s = endpointBytes(w.hubDowns)
		downRecv, downSent = downRecv+r, downSent+s
	}
	acctRecv, acctSent := snap.SupervisorLinkBytes()
	if want := acctRecv + snap.RejectedBytes; upRecv != want {
		t.Errorf("supervisor-leg ingress drifted: endpoints received %dB, ledgers account %dB (%dB on refused links)", upRecv, want, snap.RejectedBytes)
	}
	if upSent != acctSent {
		t.Errorf("supervisor-leg egress drifted: endpoints sent %dB, ledgers account %dB", upSent, acctSent)
	}
	workerRecv, workerSent := snap.EvictedBytes, int64(0)
	for _, st := range snap.Routes {
		workerRecv += st.WorkerHelloBytes + st.ToSupervisor.IngressBytes + st.CorruptBytes
		workerSent += st.ToWorker.EgressBytes
	}
	if downRecv != workerRecv {
		t.Errorf("worker-leg ingress drifted: endpoints received %dB, ledgers account %dB", downRecv, workerRecv)
	}
	if downSent != workerSent {
		t.Errorf("worker-leg egress drifted: endpoints sent %dB, ledgers account %dB", downSent, workerSent)
	}
	if got, want := upSent+downSent, snap.RelayedBytes+snap.ControlBytes; got != want {
		t.Errorf("hub egress drifted: endpoints sent %dB, relayed+control %dB", got, want)
	}
}

// TestBrokeredPipelinedSessionAccounting runs a pipelined NI-CBS session
// through the hub on a clean link and pins exact byte accounting across the
// relay hop: per-task outcome bytes plus session overhead plus the hello
// equal the supervisor endpoint's counters even though the hub re-batched
// the frames in between, and each hub direction reconciles with its
// endpoints.
func TestBrokeredPipelinedSessionAccounting(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()

	p, err := NewParticipant("p", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	partConn := registerTestWorker(t, hub, "p", 8)
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(partConn) }()

	// A small send delay on the hub→supervisor leg queues return frames
	// behind the forwarder so the re-batching path actually runs.
	physSup, hubUp := transport.Pipe(transport.WithBuffer(8))
	m, supConn, err := dialOneRouteMux(hub, physSup, transport.WithLatency(hubUp, 200*time.Microsecond), "p")
	if err != nil {
		t.Fatalf("dial one-route mux: %v", err)
	}

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeNICBS, M: 8, ChainIters: 1}, Seed: 17})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(supConn, 4)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	const tasks = 6
	outcomes := make([]*TaskOutcome, tasks)
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			task := Task{ID: uint64(i), Start: uint64(i) * 256, N: 256, Workload: "synthetic", Seed: 5}
			outcome, err := sess.RunTask(task)
			if err != nil {
				t.Errorf("session task %d: %v", i, err)
				return
			}
			outcomes[i] = outcome
		}(i)
	}
	wg.Wait()
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	_ = supConn.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	_ = m.Close()
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close: %v", err)
	}

	var taskSent, taskRecv int64
	for i, o := range outcomes {
		if o == nil {
			t.Fatalf("task %d has no outcome", i)
		}
		if !o.Verdict.Accepted {
			t.Errorf("honest task %d rejected: %s", i, o.Verdict.Reason)
		}
		taskSent += o.BytesSent
		taskRecv += o.BytesRecv
	}
	// No hello rides the route conn — the mux and open handshakes are
	// physical-link traffic — so tasks plus session overhead alone equal
	// the route's endpoint counters.
	ovSent, ovRecv := sess.OverheadBytes()
	if got, want := supConn.Stats().BytesSent(), taskSent+ovSent; got != want {
		t.Errorf("supervisor sent %dB; tasks+overhead = %dB", got, want)
	}
	if got, want := supConn.Stats().BytesRecv(), taskRecv+ovRecv; got != want {
		t.Errorf("supervisor received %dB; tasks+overhead = %dB", got, want)
	}

	snap := hub.Snapshot()
	st := snap.Routes["p"]
	if got, want := supConn.Stats().BytesSent(), st.ToWorker.IngressBytes; got != want {
		t.Errorf("hub up-ingress %dB does not reconcile with supervisor sent %dB", want, got)
	}
	if got, want := partConn.Stats().BytesRecv(), st.ToWorker.EgressBytes; got != want {
		t.Errorf("hub down-egress %dB does not reconcile with participant received %dB", want, got)
	}
	if got, want := partConn.Stats().BytesSent(), st.WorkerHelloBytes+st.ToSupervisor.IngressBytes; got != want {
		t.Errorf("hub down-ingress %dB does not reconcile with participant sent %dB", want, got)
	}
	if got, want := supConn.Stats().BytesRecv(), st.ToSupervisor.EgressBytes; got != want {
		t.Errorf("hub up-egress %dB does not reconcile with supervisor received %dB", want, got)
	}
	// The handshakes are where the hello bytes went: one mux hello on the
	// link, one open and one close hello on the route.
	muxHello := transport.Message{Type: msgHello, Payload: encodeHello(helloMsg{Role: helloRoleMux, Worker: "sup-p"})}.FrameSize()
	openHello := transport.Message{Type: msgHello, Payload: encodeHello(helloMsg{Role: helloRoleOpen, Worker: "p"})}.FrameSize()
	if snap.MuxHelloBytes != muxHello || st.SupervisorHelloBytes != 2*openHello {
		t.Errorf("handshake bytes: mux hello %dB (want %d), route hellos %dB (want %d)",
			snap.MuxHelloBytes, muxHello, st.SupervisorHelloBytes, 2*openHello)
	}
	physRecv, physSent := endpointBytes([]transport.Conn{hubUp})
	if acctRecv, acctSent := snap.SupervisorLinkBytes(); physRecv != acctRecv || physSent != acctSent {
		t.Errorf("physical supervisor link %dB in / %dB out, ledgers account %dB / %dB", physRecv, physSent, acctRecv, acctSent)
	}
	if st.ToSupervisor.EgressMsgs > st.ToSupervisor.IngressMsgs {
		t.Errorf("re-batching grew the frame count: %d egress for %d ingress", st.ToSupervisor.EgressMsgs, st.ToSupervisor.IngressMsgs)
	}
}

// TestRunSimBrokeredFaultyMatchesClean is the resume-through-relay
// acceptance test: a pipelined run routed through the broker hub over a
// faulty supervisor↔hub leg (drops and garbles forcing redials) must
// produce verdicts and reports byte-identical to a clean direct run with
// the same seeds.
func TestRunSimBrokeredFaultyMatchesClean(t *testing.T) {
	base := SimConfig{
		Spec:              SchemeSpec{Kind: SchemeCBS, M: 14},
		Workload:          "synthetic",
		Seed:              21,
		TaskSize:          128,
		Tasks:             8,
		SemiHonest:        1,
		HonestyRatio:      0.5,
		CrossCheckReports: true,
		PipelineWindow:    3,
	}
	clean, err := RunSim(base)
	if err != nil {
		t.Fatalf("clean direct RunSim: %v", err)
	}

	faulty := base
	faulty.Broker = true
	faulty.DropProb = 0.03
	faulty.GarbleProb = 0.12
	faulty.ReconnectLimit = 200
	faulty.FaultRecvTimeout = 250 * time.Millisecond
	report, err := RunSim(faulty)
	if err != nil {
		t.Fatalf("faulty brokered RunSim: %v", err)
	}

	if report.Participants[0].Reconnects < 1 {
		t.Fatalf("no redial-through-broker was forced; the test proves nothing")
	}
	if report.Broker == nil || report.Broker.RelayedMsgs == 0 || report.Broker.RelayedBytes == 0 {
		t.Fatalf("broker accounting empty: %+v", report.Broker)
	}
	if report.TasksAssigned != base.Tasks {
		t.Errorf("brokered faulty run completed %d tasks, want %d", report.TasksAssigned, base.Tasks)
	}
	if !reflect.DeepEqual(clean.TaskVerdicts, report.TaskVerdicts) {
		t.Errorf("verdicts diverge through the relay:\nclean:    %+v\nbrokered: %+v", clean.TaskVerdicts, report.TaskVerdicts)
	}
	if !reflect.DeepEqual(clean.Reports, report.Reports) {
		t.Errorf("report streams diverge: clean %d reports, brokered %d", len(clean.Reports), len(report.Reports))
	}
	if clean.HonestAccused != report.HonestAccused {
		t.Errorf("accusations diverge: clean %d, brokered %d", clean.HonestAccused, report.HonestAccused)
	}
}

// TestRunSimBrokeredReplicatedFaultyMatchesClean is the issue's acceptance
// bar: a pipelined double-check run through the broker with drops, garbles,
// and reconnects produces verdicts byte-identical to the clean direct
// serial run, and the verdict-ack machinery still converges the
// participants' own counters through the relay.
func TestRunSimBrokeredReplicatedFaultyMatchesClean(t *testing.T) {
	base := SimConfig{
		Spec:         SchemeSpec{Kind: SchemeDoubleCheck, M: 1},
		Workload:     "synthetic",
		Seed:         29,
		TaskSize:     96,
		Tasks:        6,
		Honest:       2,
		SemiHonest:   2,
		HonestyRatio: 0.4,
		Replicas:     3,
	}
	clean, err := RunSim(base)
	if err != nil {
		t.Fatalf("clean direct serial RunSim: %v", err)
	}

	faulty := base
	faulty.Broker = true
	faulty.PipelineWindow = 3
	faulty.DropProb = 0.03
	faulty.GarbleProb = 0.1
	faulty.ReconnectLimit = 200
	faulty.FaultRecvTimeout = 250 * time.Millisecond
	report, err := RunSim(faulty)
	if err != nil {
		t.Fatalf("faulty brokered pipelined RunSim: %v", err)
	}

	reconnects := 0
	for _, p := range report.Participants {
		reconnects += p.Reconnects
	}
	if reconnects == 0 {
		t.Fatalf("no redial-through-broker was forced; the test proves nothing")
	}
	if report.TasksAssigned != clean.TasksAssigned {
		t.Errorf("brokered run assigned %d replica executions, clean %d", report.TasksAssigned, clean.TasksAssigned)
	}
	if !reflect.DeepEqual(clean.TaskVerdicts, report.TaskVerdicts) {
		t.Errorf("verdicts diverge through the relay:\nclean:    %+v\nbrokered: %+v", clean.TaskVerdicts, report.TaskVerdicts)
	}
	if !reflect.DeepEqual(clean.Reports, report.Reports) {
		t.Errorf("report streams diverge: clean %d reports, brokered %d", len(clean.Reports), len(report.Reports))
	}
	for i := range clean.Participants {
		c, f := clean.Participants[i], report.Participants[i]
		if c.Tasks != f.Tasks || c.Accepted != f.Accepted || c.Rejected != f.Rejected {
			t.Errorf("participant %s counters lag through the relay: clean tasks/acc/rej %d/%d/%d, brokered %d/%d/%d",
				c.ID, c.Tasks, c.Accepted, c.Rejected, f.Tasks, f.Accepted, f.Rejected)
		}
	}
}

// TestRunSimBrokeredCleanMatchesDirect pins relay transparency without
// faults, including the dialogue (non-pipelined) wire mode: routing a run
// through the hub changes no verdict, report, or participant counter.
func TestRunSimBrokeredCleanMatchesDirect(t *testing.T) {
	for _, window := range []int{0, 3} {
		base := SimConfig{
			Spec:           SchemeSpec{Kind: SchemeNICBS, M: 12, ChainIters: 1},
			Workload:       "synthetic",
			Seed:           13,
			TaskSize:       128,
			Tasks:          6,
			Honest:         2,
			SemiHonest:     1,
			HonestyRatio:   0.4,
			PipelineWindow: window,
		}
		if window > 0 {
			// Work stealing makes the task→participant pairing scheduling-
			// dependent; a single participant pins it so the full reports
			// can be compared byte for byte.
			base.Honest, base.SemiHonest = 0, 1
		}
		direct, err := RunSim(base)
		if err != nil {
			t.Fatalf("direct RunSim (window %d): %v", window, err)
		}
		brokered := base
		brokered.Broker = true
		report, err := RunSim(brokered)
		if err != nil {
			t.Fatalf("brokered RunSim (window %d): %v", window, err)
		}
		if !reflect.DeepEqual(direct.TaskVerdicts, report.TaskVerdicts) {
			t.Errorf("window %d: verdicts diverge through the relay", window)
		}
		if !reflect.DeepEqual(direct.Reports, report.Reports) {
			t.Errorf("window %d: reports diverge through the relay", window)
		}
		for i := range direct.Participants {
			d, b := direct.Participants[i], report.Participants[i]
			if d.Tasks != b.Tasks || d.Accepted != b.Accepted || d.Rejected != b.Rejected {
				t.Errorf("window %d: participant %s counters diverge: direct %d/%d/%d, brokered %d/%d/%d",
					window, d.ID, d.Tasks, d.Accepted, d.Rejected, b.Tasks, b.Accepted, b.Rejected)
			}
		}
		if report.Broker == nil || report.Broker.RelayedMsgs == 0 {
			t.Errorf("window %d: broker accounting empty", window)
		}
	}
}

// TestBrokerEvictsDeadRegisteredWorker pins the eager-eviction behaviour: a
// worker link that dies while registered and unbound is evicted by its
// reader as soon as the read error surfaces, so a route opened later waits
// for a live registration (and times out) instead of binding a corpse and
// failing mid-exchange.
func TestBrokerEvictsDeadRegisteredWorker(t *testing.T) {
	hub := NewBrokerHub(WithBindTimeout(300 * time.Millisecond))
	defer func() {
		if err := hub.Close(); err != nil {
			t.Errorf("hub close: %v", err)
		}
	}()

	// Kill the worker endpoint while its link sits parked in the registry.
	partConn := registerTestWorker(t, hub, "w1", 8)
	_ = partConn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for hub.Snapshot().EvictedLinks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead registered link was never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := hub.Snapshot().EvictedLinks; got != 1 {
		t.Fatalf("EvictedLinks = %d, want 1", got)
	}

	// A route naming the evicted identity must not bind: the hub waits out
	// the bind timeout and closes the route.
	m, route := mustDialOneRouteMux(t, hub, "w1")
	defer m.Close()
	if _, err := route.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("route to an evicted worker: Recv = %v, want io.EOF", err)
	}
	if binds := hub.Snapshot().Routes["w1"].Binds; binds != 0 {
		t.Fatalf("route bound to an evicted worker link (%d binds)", binds)
	}
}

// TestBrokerRetiredSupervisorRoleRefused pins the retirement of hello role
// 2 (once a supervisor link carrying a single route): a link opening with
// it is refused like any other bad handshake — closed, counted once in the
// rejected ledger, and costing the hub no more than the frame it sent.
func TestBrokerRetiredSupervisorRoleRefused(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()
	registerTestWorker(t, hub, "w", 8)
	peer, hubUp := transport.Pipe(transport.WithBuffer(8))
	hello := transport.Message{Type: msgHello, Payload: encodeHello(helloMsg{Role: helloRoleRetired, Worker: "w"})}
	if err := peer.Send(hello); err != nil {
		t.Fatalf("send hello: %v", err)
	}
	if err := hub.Attach(hubUp); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("Attach of a role-2 link = %v, want ErrBadPayload", err)
	}
	if _, err := peer.Recv(); err == nil {
		t.Fatal("refused link left open")
	}
	snap := hub.Snapshot()
	if snap.RejectedLinks != 1 || snap.RejectedBytes != hello.FrameSize() {
		t.Errorf("rejected ledger: %d links / %dB, want 1 / %dB", snap.RejectedLinks, snap.RejectedBytes, hello.FrameSize())
	}
	if snap.MuxLinks != 0 || snap.RoutesOpened != 0 || snap.Routes["w"].Binds != 0 || snap.Routes["w"].SupervisorHelloBytes != 0 {
		t.Errorf("a refused link left a trace beyond the rejected ledger: %+v", snap)
	}
}

// TestBrokerRelaysFrameSentBeforeBind pins what a parked link's reader does
// with a frame that arrives before any route is bound: it is held — with
// its measured bytes — and relayed first, byte-exact, once a route binds;
// nothing is lost, reordered or double counted.
func TestBrokerRelaysFrameSentBeforeBind(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()
	hubDown, partConn := transport.Pipe(transport.WithBuffer(8))
	if err := HelloWorker(partConn, "w"); err != nil {
		t.Fatalf("HelloWorker: %v", err)
	}
	if err := hub.Attach(hubDown); err != nil {
		t.Fatalf("Attach worker: %v", err)
	}
	early := transport.Message{Type: msgResults, Payload: []byte("sent before any bind")}
	if err := partConn.Send(early); err != nil {
		t.Fatalf("early send: %v", err)
	}
	// Wait until the parked link's reader has taken the frame off the wire.
	for deadline := time.Now().Add(5 * time.Second); hubDown.Stats().BytesRecv() < partConn.Stats().BytesSent(); {
		if time.Now().After(deadline) {
			t.Fatal("the parked link's reader never read the early frame")
		}
		time.Sleep(time.Millisecond)
	}
	if st := hub.Snapshot().Routes["w"]; st.ToSupervisor.IngressMsgs != 0 {
		t.Fatalf("a frame on a parked link was counted before any route existed: %+v", st)
	}

	m, route := mustDialOneRouteMux(t, hub, "w")
	defer m.Close()
	late := transport.Message{Type: msgResults, Payload: []byte("sent after")}
	if err := partConn.Send(late); err != nil {
		t.Fatalf("late send: %v", err)
	}
	for i, want := range []transport.Message{early, late} {
		got, err := route.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || string(got.Payload) != string(want.Payload) {
			t.Fatalf("frame %d = %q, want %q", i, got.Payload, want.Payload)
		}
	}
	_ = route.Close()
	_ = partConn.Close()
	_ = hub.Close()
	st := hub.Snapshot().Routes["w"]
	if got, want := st.ToSupervisor.IngressBytes, early.FrameSize()+late.FrameSize(); got != want || st.ToSupervisor.IngressMsgs != 2 {
		t.Errorf("worker-leg ingress %d frames / %dB, want 2 / %dB", st.ToSupervisor.IngressMsgs, got, want)
	}
	if got, want := partConn.Stats().BytesSent(), st.WorkerHelloBytes+st.ToSupervisor.IngressBytes; got != want {
		t.Errorf("worker sent %dB, ledgers account %dB", got, want)
	}
	if got, want := route.Stats().BytesRecv(), st.ToSupervisor.EgressBytes; got != want {
		t.Errorf("route received %dB, hub ToSupervisor egress %dB", got, want)
	}
}

// TestFrameQReusesBackingArray pins the hub queues' storage discipline, the
// one TestSessionInboxReusesBackingArray pins for a session inbox: popping
// advances a head index, a drained queue rewinds to the front of its backing
// array, a popped slot no longer pins its payload — and a queue that never
// quite drains slides down instead of growing with every frame that passes.
func TestFrameQReusesBackingArray(t *testing.T) {
	var q frameQ
	put := func(payloads ...string) {
		t.Helper()
		for _, p := range payloads {
			if !q.put(transport.Message{Type: msgCommit, Payload: []byte(p)}) {
				t.Fatalf("put %q refused", p)
			}
		}
	}
	pop := func(want string) {
		t.Helper()
		if m, ok := q.peek(); !ok || string(m.Payload) != want {
			t.Fatalf("peek = %q, %v; want %q", m.Payload, ok, want)
		}
		if m, ok := q.pop(); !ok || string(m.Payload) != want {
			t.Fatalf("pop = %q, %v; want %q", m.Payload, ok, want)
		}
	}

	put("a", "b", "c")
	pop("a")
	if q.frames[0].Payload != nil {
		t.Fatal("popped slot still pins its payload")
	}
	pop("b")
	put("d") // refill behind a half-drained queue: order must hold
	pop("c")
	pop("d")
	if len(q.frames) != 0 || q.head != 0 || q.bytes != 0 || !q.empty() {
		t.Fatalf("drained queue not rewound: len %d, head %d, %d bytes", len(q.frames), q.head, q.bytes)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on an empty queue reported a frame")
	}
	base := &q.frames[:1][0]
	for i := 0; i < 100; i++ {
		put("x")
		if &q.frames[0] != base {
			t.Fatalf("refill %d reallocated the queue", i)
		}
		pop("x")
	}

	// One frame always left behind: the queue never rewinds, so it must
	// slide down rather than let its array grow with the traffic.
	put("y")
	for i := 0; i < 10_000; i++ {
		put("y")
		pop("y")
	}
	if cap(q.frames) > 16 {
		t.Fatalf("a queue holding 1–2 frames grew to %d slots", cap(q.frames))
	}
	if want := (transport.Message{Payload: []byte("y")}).FrameSize(); q.bytes != want {
		t.Fatalf("occupancy ledger = %d bytes with one frame queued, want %d", q.bytes, want)
	}

	q.drop()
	if !q.empty() || q.head != 0 || q.put(transport.Message{}) {
		t.Fatal("dropped queue still holds or accepts frames")
	}
}
