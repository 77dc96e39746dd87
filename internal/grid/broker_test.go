package grid

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"uncheatgrid/internal/transport"
)

// brokerTestWorker wires one participant to a hub the way a deployment
// harness would: every dial registers a fresh worker link under the
// participant's identity and opens a supervisor link whose hello names it.
// The optional garble plan applies to the supervisor→hub leg only, so
// corrupt frames surface at the hub — crossing the relay — rather than at
// an endpoint.
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
	partConns []transport.Conn
	hubEnds   []transport.Conn
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
// supervisor-side endpoint. Safe to call from the stream's redial callback.
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
		sup = transport.WithFaults(sup, transport.FaultPlan{
			GarbleProb: w.garble,
			Seed:       w.seed + int64(attempt),
		})
	}
	go func() { _ = w.hub.Attach(hubUp) }()
	if err := HelloSupervisor(sup, w.name); err != nil {
		w.t.Errorf("HelloSupervisor(%s): %v", w.name, err)
	}
	w.mu.Lock()
	w.supConns = append(w.supConns, sup)
	w.partConns = append(w.partConns, partConn)
	w.hubEnds = append(w.hubEnds, hubDown, hubUp)
	w.serveErrs = append(w.serveErrs, serveErr)
	w.mu.Unlock()
	return sup
}

func (w *brokerTestWorker) shutdown() {
	w.mu.Lock()
	conns := append([]transport.Conn(nil), w.supConns...)
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
}

// TestBrokerHubRoutesByIdentity pins the multiplexing contract: one hub
// carries several supervisor↔worker routes at once, and each supervisor
// link reaches exactly the worker its hello named — proven by personas
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
	for _, name := range []string{"honest", "cheat"} {
		st, ok := hub.WorkerStats(name)
		if !ok || st.Binds != 1 || st.ToWorker.EgressMsgs == 0 || st.ToSupervisor.EgressMsgs == 0 {
			t.Errorf("route stats for %s: %+v (ok=%v)", name, st, ok)
		}
	}
	honest.shutdown()
	cheat.shutdown()
}

// TestBrokerUnknownWorkerBindTimesOut pins the bind contract: a supervisor
// hello naming a worker that never registers is refused after the bind
// timeout — Attach itself returns as soon as the hello is consumed (the
// bind waits in the background), and the refusal surfaces to the dialing
// peer as a closed link.
func TestBrokerUnknownWorkerBindTimesOut(t *testing.T) {
	hub := NewBrokerHub(WithBindTimeout(50 * time.Millisecond))
	defer hub.Close()
	supConn, hubUp := transport.Pipe(transport.WithBuffer(8))
	if err := HelloSupervisor(supConn, "nobody"); err != nil {
		t.Fatalf("HelloSupervisor: %v", err)
	}
	start := time.Now()
	if err := hub.Attach(hubUp); err != nil {
		t.Fatalf("Attach must not report the background bind: %v", err)
	}
	if waited := time.Since(start); waited > 40*time.Millisecond {
		t.Errorf("Attach blocked %v for the bind; it must return after the hello", waited)
	}
	if _, err := supConn.Recv(); err == nil {
		t.Fatal("refused supervisor link left open")
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
	if hub.RejectedHandshakes() == 0 {
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
	if got := len(hub.Workers()); got > 2 {
		t.Fatalf("hub tracks %d identities, cap 2", got)
	}
	if hub.RejectedHandshakes() == 0 {
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
	hubDown, partConn := transport.Pipe(transport.WithBuffer(1))
	if err := HelloWorker(partConn, "w"); err != nil {
		t.Fatalf("HelloWorker: %v", err)
	}
	if err := hub.Attach(hubDown); err != nil {
		t.Fatalf("Attach worker: %v", err)
	}
	supConn, hubUp := transport.Pipe(transport.WithBuffer(16))
	if err := HelloSupervisor(supConn, "w"); err != nil {
		t.Fatalf("HelloSupervisor: %v", err)
	}
	if err := hub.Attach(hubUp); err != nil {
		t.Fatalf("Attach supervisor: %v", err)
	}

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
		msgs, err := decodeBatch(msg.Payload)
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
	st, _ := hub.WorkerStats("w")
	if st.ToWorker.EgressMsgs >= st.ToWorker.IngressMsgs {
		t.Errorf("egress %d frames not below ingress %d despite coalescing", st.ToWorker.EgressMsgs, st.ToWorker.IngressMsgs)
	}
}

// TestBrokerDeliversQueuedFramesOnCleanClose pins the relay's delivery
// guarantee: frames the hub accepted before a peer's clean close must
// still reach the other endpoint (the direct transport drains queued
// messages after a close, and the old synchronous relay never read ahead
// of its sends), not be dropped with the route.
func TestBrokerDeliversQueuedFramesOnCleanClose(t *testing.T) {
	hub := NewBrokerHub(WithRelayBatching(false))
	defer hub.Close()
	hubDown, partConn := transport.Pipe(transport.WithBuffer(1))
	if err := HelloWorker(partConn, "w"); err != nil {
		t.Fatalf("HelloWorker: %v", err)
	}
	if err := hub.Attach(hubDown); err != nil {
		t.Fatalf("Attach worker: %v", err)
	}
	supConn, hubUp := transport.Pipe(transport.WithBuffer(16))
	if err := HelloSupervisor(supConn, "w"); err != nil {
		t.Fatalf("HelloSupervisor: %v", err)
	}
	if err := hub.Attach(hubUp); err != nil {
		t.Fatalf("Attach supervisor: %v", err)
	}

	const frames = 12
	for i := 0; i < frames; i++ {
		if err := supConn.Send(transport.Message{Type: msgVerdict, Payload: []byte{byte(i)}}); err != nil {
			t.Fatalf("send frame %d: %v", i, err)
		}
	}
	_ = supConn.Close() // clean close with most frames still queued at the hub
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
}

// TestBrokerCorruptFrameQuarantinesRouteNotHub is the fault-transparency
// regression test: a CRC-corrupt frame crossing the relay must quarantine
// only the affected route — the supervisor redials through the hub, the
// resume handshake is re-bound to the same worker, and every task still
// completes with an accepted verdict — while an unrelated worker's route
// keeps relaying untouched. It also pins the accounting contract under
// faults: the hub's counters reconcile exactly with its endpoint byte
// counters, and total egress equals RelayedBytes.
func TestBrokerCorruptFrameQuarantinesRouteNotHub(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()
	faulty := newBrokerTestWorker(t, hub, "faulty", HonestFactory, 0.25, 1000)
	clean := newBrokerTestWorker(t, hub, "clean", HonestFactory, 0, 0)
	workers := map[string]*brokerTestWorker{"faulty": faulty, "clean": clean}

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

	fst, _ := hub.WorkerStats("faulty")
	if fst.CorruptFrames == 0 {
		t.Fatal("no corrupt frame ever crossed the relay; the test proves nothing")
	}
	if fst.Binds < 2 {
		t.Errorf("faulty worker bound %d times, want >= 2 (resume-through-relay)", fst.Binds)
	}
	cst, _ := hub.WorkerStats("clean")
	if cst.CorruptFrames != 0 || cst.Binds != 1 {
		t.Errorf("clean worker's route was disturbed: %+v", cst)
	}
	clean.mu.Lock()
	cleanDials := clean.dials
	clean.mu.Unlock()
	if cleanDials != 1 {
		t.Errorf("clean worker redialed %d times; its route should have survived", cleanDials-1)
	}

	// Exact accounting: everything the hub-side endpoints ever received is
	// either a consumed hello, relayed ingress, a counted corrupt frame, or
	// a rejected handshake; everything they sent is relayed egress.
	var endRecv, endSent int64
	for _, w := range workers {
		w.mu.Lock()
		for _, c := range w.hubEnds {
			endRecv += c.Stats().BytesRecv()
			endSent += c.Stats().BytesSent()
		}
		w.mu.Unlock()
	}
	var acct int64
	for name := range workers {
		st, _ := hub.WorkerStats(name)
		acct += st.WorkerHelloBytes + st.SupervisorHelloBytes + st.CorruptBytes +
			st.ToWorker.IngressBytes + st.ToSupervisor.IngressBytes
	}
	acct += hub.RejectedHandshakeBytes()
	if endRecv != acct {
		t.Errorf("hub ingress accounting drifted: endpoints received %dB, counters account %dB", endRecv, acct)
	}
	if endSent != hub.RelayedBytes() {
		t.Errorf("hub egress accounting drifted: endpoints sent %dB, RelayedBytes %dB", endSent, hub.RelayedBytes())
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
	hubDown, partConn := transport.Pipe(transport.WithBuffer(8))
	if err := HelloWorker(partConn, "p"); err != nil {
		t.Fatalf("HelloWorker: %v", err)
	}
	if err := hub.Attach(hubDown); err != nil {
		t.Fatalf("Attach worker: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(partConn) }()

	supConn, hubUp := transport.Pipe(transport.WithBuffer(8))
	if err := HelloSupervisor(supConn, "p"); err != nil {
		t.Fatalf("HelloSupervisor: %v", err)
	}
	// A small send delay on the hub→supervisor leg queues return frames
	// behind the forwarder so the re-batching path actually runs.
	if err := hub.Attach(transport.WithLatency(hubUp, 200*time.Microsecond)); err != nil {
		t.Fatalf("Attach supervisor: %v", err)
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
	ovSent, ovRecv := sess.OverheadBytes()
	helloSize := transport.Message{Type: msgHello, Payload: encodeHello(helloMsg{Role: helloRoleSupervisor, Worker: "p"})}.FrameSize()
	if got, want := supConn.Stats().BytesSent(), taskSent+ovSent+helloSize; got != want {
		t.Errorf("supervisor sent %dB; tasks+overhead+hello = %dB", got, want)
	}
	if got, want := supConn.Stats().BytesRecv(), taskRecv+ovRecv; got != want {
		t.Errorf("supervisor received %dB; tasks+overhead = %dB", got, want)
	}

	st, _ := hub.WorkerStats("p")
	if got, want := supConn.Stats().BytesSent(), st.SupervisorHelloBytes+st.ToWorker.IngressBytes; got != want {
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
	if st.ToSupervisor.EgressMsgs > st.ToSupervisor.IngressMsgs {
		t.Errorf("re-batching grew the frame count: %d egress for %d ingress", st.ToSupervisor.EgressMsgs, st.ToSupervisor.IngressMsgs)
	}
}

// TestReplaceReplicaAllowsDeadMembersOwnWorker pins identity-keyed
// re-placement: a replica vacating its dead slot must be allowed onto a
// different route to that same worker — the dead member's own identity is
// not a sibling — instead of being declared lost while a pairwise-distinct
// placement exists.
func TestReplaceReplicaAllowsDeadMembersOwnWorker(t *testing.T) {
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}}, 4)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	_, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Four routes to three workers: two of them reach worker A.
	ids := make(map[transport.Conn]string)
	slots := make([]*connSlot, 4)
	for i, worker := range []string{"A", "B", "C", "A"} {
		conn, _ := transport.Pipe()
		ids[conn] = worker
		slots[i] = newConnSlot(conn, nil)
	}
	cfg := streamConfig{identity: func(c transport.Conn) string { return ids[c] }}
	d := newDispatcher(pool, &cfg, SliceTaskSource(nil), 1, cancel)
	d.allSlots = slots

	grp := &replicaGroup{
		task: poolTasks(1, 64)[0],
		rdv:  newReplicaRendezvous(3),
		// Pre-placed on the first route to each worker: A, B, C.
		slots: []*connSlot{slots[0], slots[1], slots[2]},
	}
	d.groups[grp] = struct{}{}

	d.mu.Lock()
	d.dead[slots[0]], d.retired[slots[0]] = true, true
	d.replaceReplicaLocked(ticket{task: grp.task, grp: grp, repIdx: 0}, slots[0])
	pinned := len(d.pinned[slots[3]])
	d.mu.Unlock()

	if grp.rdv.ready() {
		t.Fatal("replica declared lost although the second route to worker A was free")
	}
	if grp.slots[0] != slots[3] {
		t.Fatalf("replica re-placed on slot %v, want the surviving route to worker A", grp.slots[0])
	}
	if pinned != 1 {
		t.Fatalf("replacement ticket not pinned to the new slot (%d pinned)", pinned)
	}
	// A worker that IS still a live sibling must stay vetoed: kill B's
	// slot too. The only live candidates route to A (now hosting replica
	// 0) and C (hosting replica 2), so replica 1 must be declared lost —
	// its slot entry untouched — rather than placed on a sibling's worker.
	d.mu.Lock()
	d.dead[slots[1]], d.retired[slots[1]] = true, true
	d.replaceReplicaLocked(ticket{task: grp.task, grp: grp, repIdx: 1}, slots[1])
	moved := grp.slots[1]
	d.mu.Unlock()
	if moved != slots[1] {
		t.Fatalf("replica 1 re-placed onto a sibling's worker: %v", moved)
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
	if !report.Brokered || report.BrokerRelayedMsgs == 0 || report.BrokerRelayedBytes == 0 {
		t.Fatalf("broker accounting empty: %+v", report)
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
		if !report.Brokered || report.BrokerRelayedMsgs == 0 {
			t.Errorf("window %d: broker accounting empty", window)
		}
	}
}

// TestBrokerEvictsDeadRegisteredWorker pins the eager-eviction behaviour: a
// worker link that dies while registered and unbound is evicted by its
// monitor as soon as the read error surfaces, so a supervisor arriving
// later waits for a live registration (and times out) instead of binding a
// corpse and failing mid-exchange.
func TestBrokerEvictsDeadRegisteredWorker(t *testing.T) {
	hub := NewBrokerHub(WithBindTimeout(300 * time.Millisecond))
	defer func() {
		if err := hub.Close(); err != nil {
			t.Errorf("hub close: %v", err)
		}
	}()

	hubDown, partConn := transport.Pipe(transport.WithBuffer(8))
	if err := HelloWorker(partConn, "w1"); err != nil {
		t.Fatalf("HelloWorker: %v", err)
	}
	if err := hub.Attach(hubDown); err != nil {
		t.Fatalf("Attach worker: %v", err)
	}

	// Kill the worker endpoint while its link sits parked in the registry.
	_ = partConn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for hub.EvictedWorkerLinks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead registered link was never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := hub.EvictedWorkerLinks(); got != 1 {
		t.Fatalf("EvictedWorkerLinks = %d, want 1", got)
	}

	// A supervisor naming the evicted identity must not bind: the hub waits
	// out the bind timeout and closes the supervisor link, which is how the
	// failure reaches the dialing peer.
	supConn, hubUp := transport.Pipe(transport.WithBuffer(8))
	if err := HelloSupervisor(supConn, "w1"); err != nil {
		t.Fatalf("HelloSupervisor: %v", err)
	}
	if err := hub.Attach(hubUp); err != nil {
		t.Fatalf("Attach supervisor: %v", err)
	}
	if _, err := supConn.Recv(); err == nil {
		t.Fatal("supervisor bound to an evicted worker link")
	}
}
