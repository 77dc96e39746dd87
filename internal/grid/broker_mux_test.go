package grid

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uncheatgrid/internal/transport"
)

// openTestMux dials one physical supervisor link to the hub and attaches it
// as a mux, returning the hub-side endpoint too so tests can reconcile the
// physical byte counters.
func openTestMux(t *testing.T, hub *BrokerHub, label string, opts ...MuxOption) (*SupervisorMux, transport.Conn) {
	t.Helper()
	supConn, hubUp := transport.Pipe(transport.WithBuffer(8))
	m, err := OpenMux(supConn, label, opts...)
	if err != nil {
		t.Fatalf("OpenMux(%s): %v", label, err)
	}
	if err := hub.Attach(hubUp); err != nil {
		t.Fatalf("Attach mux %s: %v", label, err)
	}
	return m, hubUp
}

// serveTestWorker registers a participant link under name and serves it.
func serveTestWorker(t *testing.T, hub *BrokerHub, name string, factory ProducerFactory) (transport.Conn, chan error) {
	t.Helper()
	p, err := NewParticipant(name, factory)
	if err != nil {
		t.Fatalf("NewParticipant(%s): %v", name, err)
	}
	partConn := registerTestWorker(t, hub, name, 8)
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(partConn) }()
	return partConn, serveErr
}

// waitBinds polls until the worker has been bound n times.
func waitBinds(t testing.TB, hub *BrokerHub, worker string, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hub.binds(worker) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never reached %d binds", worker, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxOneLinkCarriesManyRoutes is the tentpole contract: ONE physical
// supervisor link multiplexes a route per worker, each route reaches
// exactly the worker it was opened to (proven by personas over interactive
// CBS, both relay directions), and the hub counts one mux link however many
// routes ride it.
func TestMuxOneLinkCarriesManyRoutes(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()
	const n = 8
	serveErrs := make([]chan error, n)
	for i := 0; i < n; i++ {
		factory := HonestFactory
		if i%2 == 1 {
			factory = SemiHonestFactory(0, uint64(i))
		}
		_, serveErrs[i] = serveTestWorker(t, hub, fmt.Sprintf("w-%d", i), factory)
	}
	m, _ := openTestMux(t, hub, "supervisor")
	routes := make([]transport.Conn, n)
	for i := range routes {
		var err error
		if routes[i], err = m.OpenRoute(fmt.Sprintf("w-%d", i)); err != nil {
			t.Fatalf("OpenRoute(w-%d): %v", i, err)
		}
	}

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	outcomes := make([]*TaskOutcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range routes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			task := syntheticTask(128)
			task.ID = uint64(i)
			outcomes[i], errs[i] = runDialogue(sup, routes[i], task)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("RunTask over route %d: %v", i, err)
		}
	}
	for i, o := range outcomes {
		if cheater := i%2 == 1; o.Verdict.Accepted == cheater {
			t.Errorf("route %d (cheater=%v) got verdict %+v — routed to the wrong worker?", i, cheater, o.Verdict)
		}
	}

	for _, r := range routes {
		_ = r.Close()
	}
	for i, ch := range serveErrs {
		if err := <-ch; err != nil {
			t.Errorf("participant w-%d serve: %v", i, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("mux close: %v", err)
	}
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close: %v", err)
	}

	snap := hub.Snapshot()
	if got := snap.MuxLinks; got != 1 {
		t.Errorf("hub counted %d mux links for one physical connection", got)
	}
	if got := snap.RoutesOpened; got != n {
		t.Errorf("hub counted %d routes opened, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		st, ok := snap.Routes[fmt.Sprintf("w-%d", i)]
		if !ok || st.Binds != 1 || st.ToWorker.EgressMsgs == 0 || st.ToSupervisor.EgressMsgs == 0 {
			t.Errorf("route stats for w-%d: %+v (ok=%v)", i, st, ok)
		}
	}
}

// TestMuxHubGoroutineBudget is the scaling regression test: routes on a
// multiplexed link must not cost the hub goroutines — one reader and one
// writer per PHYSICAL link, never per route. 256 pending routes on one
// link leave the hub's goroutine count where two goroutines plus the mux's
// own two put it.
func TestMuxHubGoroutineBudget(t *testing.T) {
	base := runtime.NumGoroutine()
	hub := NewBrokerHub(WithBindTimeout(time.Minute))
	m, _ := openTestMux(t, hub, "supervisor")
	const routes = 256
	conns := make([]transport.Conn, routes)
	for i := range conns {
		var err error
		if conns[i], err = m.OpenRoute(fmt.Sprintf("pending-%d", i)); err != nil {
			t.Fatalf("OpenRoute %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for hub.Snapshot().RoutesOpened < routes {
		if time.Now().After(deadline) {
			t.Fatalf("hub registered %d of %d routes", hub.Snapshot().RoutesOpened, routes)
		}
		time.Sleep(time.Millisecond)
	}
	if grown := runtime.NumGoroutine() - base; grown > 10 {
		t.Errorf("%d routes on one physical link grew the goroutine count by %d; the hub must run O(physical links) goroutines", routes, grown)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	if err := m.Close(); err != nil {
		t.Fatalf("mux close: %v", err)
	}
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close: %v", err)
	}
}

// TestMuxAccountingReconcilesExactly pins the ledger identities of the
// RouteStats contract: per-route conn counters (inner frame sizes) equal
// the hub's per-worker ingress/egress exactly, and the physical endpoint's
// byte counters are what HubSnapshot.SupervisorLinkBytes accounts for —
// hellos + inner frames + envelope overhead + control traffic, nothing
// unaccounted. The credit window is shrunk so grants actually flow.
func TestMuxAccountingReconcilesExactly(t *testing.T) {
	window := WithRouteCreditWindow(128)
	hub := NewBrokerHub(window)
	defer hub.Close()
	const nw = 3
	serveErrs := make([]chan error, nw)
	for i := 0; i < nw; i++ {
		_, serveErrs[i] = serveTestWorker(t, hub, fmt.Sprintf("w-%d", i), HonestFactory)
	}
	m, hubUp := openTestMux(t, hub, "supervisor", window)
	routes := make([]transport.Conn, nw)
	for i := range routes {
		var err error
		if routes[i], err = m.OpenRoute(fmt.Sprintf("w-%d", i)); err != nil {
			t.Fatalf("OpenRoute(w-%d): %v", i, err)
		}
	}

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeNICBS, M: 8, ChainIters: 1}, Seed: 17})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	for i, route := range routes {
		sess, err := sup.OpenSession(route, 2)
		if err != nil {
			t.Fatalf("OpenSession route %d: %v", i, err)
		}
		var taskSent, taskRecv int64
		for j := 0; j < 3; j++ {
			task := Task{ID: uint64(i*10 + j), Start: uint64(j) * 256, N: 256, Workload: "synthetic", Seed: 5}
			outcome, err := sess.RunTask(task)
			if err != nil {
				t.Fatalf("route %d task %d: %v", i, j, err)
			}
			if !outcome.Verdict.Accepted {
				t.Errorf("honest route %d task %d rejected: %s", i, j, outcome.Verdict.Reason)
			}
			taskSent += outcome.BytesSent
			taskRecv += outcome.BytesRecv
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("route %d session close: %v", i, err)
		}
		// No hello rides the route conn — the open handshake is physical-
		// link traffic — so task + overhead bytes alone must equal the
		// virtual endpoint counters.
		ovSent, ovRecv := sess.OverheadBytes()
		if got, want := route.Stats().BytesSent(), taskSent+ovSent; got != want {
			t.Errorf("route %d sent %dB; tasks+overhead = %dB", i, got, want)
		}
		if got, want := route.Stats().BytesRecv(), taskRecv+ovRecv; got != want {
			t.Errorf("route %d received %dB; tasks+overhead = %dB", i, got, want)
		}
	}
	for _, route := range routes {
		_ = route.Close()
	}
	for i, ch := range serveErrs {
		if err := <-ch; err != nil {
			t.Errorf("participant w-%d serve: %v", i, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("mux close: %v", err)
	}
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close: %v", err)
	}
	ms, snap := m.Snapshot(), hub.Snapshot()
	if ms.OrphanFrames != 0 {
		t.Fatalf("clean run orphaned %d frames at the supervisor mux", ms.OrphanFrames)
	}

	var toWorkerGranted, toSupGranted int64
	for i := 0; i < nw; i++ {
		name := fmt.Sprintf("w-%d", i)
		st, ok := snap.Routes[name]
		if !ok {
			t.Fatalf("no route stats for %s", name)
		}
		toWorkerGranted += st.ToWorkerGrantedBytes
		toSupGranted += st.ToSupervisorGrantedBytes
		// Per-route exactness: the virtual endpoints and the hub agree to
		// the byte even though every frame crossed a shared envelope.
		if got := routes[i].Stats().BytesSent(); got != st.ToWorker.IngressBytes {
			t.Errorf("%s: route sent %dB, hub ToWorker ingress %dB", name, got, st.ToWorker.IngressBytes)
		}
		if got := routes[i].Stats().BytesRecv(); got != st.ToSupervisor.EgressBytes {
			t.Errorf("%s: route received %dB, hub ToSupervisor egress %dB", name, got, st.ToSupervisor.EgressBytes)
		}
	}
	if snap.ControlBytes == 0 {
		t.Error("no credit grants flowed under a 128-byte window; the flow-control path went unexercised")
	}
	if snap.ControlInBytes == 0 {
		t.Error("no supervisor→hub credit grants flowed; the bidirectional flow-control path went unexercised")
	}
	// Grant ledgers obey conservation endpoint-to-endpoint: neither side
	// ever receives credit (or control frames) the other did not send.
	// Teardown can strand a final queued grant in flight, so the receive
	// side is bounded by — not equal to — the grant side.
	if got := ms.CreditReceivedBytes; got == 0 || got > toWorkerGranted {
		t.Errorf("hub granted %dB toWorker credit, mux received %dB", toWorkerGranted, got)
	}
	if sent := ms.CreditGrantedBytes; toSupGranted == 0 || toSupGranted > sent {
		t.Errorf("mux granted %dB toSup credit, hub received %dB", sent, toSupGranted)
	}
	if got, sent := snap.ControlInMsgs, ms.GrantFrames; got == 0 || got > sent {
		t.Errorf("hub saw %d control frames in, mux sent %d", got, sent)
	}
	if got, sent := snap.ControlInBytes, ms.GrantWireBytes; got == 0 || got > sent {
		t.Errorf("hub counted %dB control ingress, mux sent %dB of grant frames", got, sent)
	}
	acctRecv, acctSent := snap.SupervisorLinkBytes()
	if physRecv := hubUp.Stats().BytesRecv(); physRecv != acctRecv {
		t.Errorf("physical ingress %dB, ledgers account %dB: %+v", physRecv, acctRecv, snap)
	}
	if physSent := hubUp.Stats().BytesSent(); physSent != acctSent {
		t.Errorf("physical egress %dB, ledgers account %dB: %+v", physSent, acctSent, snap)
	}
}

// TestMuxCorruptLinkQuarantinesLinkNotHub pins the shared-link fault rule:
// a CRC-corrupt frame on a multiplexed link is unattributable to any one
// route, so the whole physical link — every route on it — is quarantined
// and counted in the hub's mux-corrupt ledger, never against a worker; an
// unrelated physical link keeps relaying and the hub survives.
func TestMuxCorruptLinkQuarantinesLinkNotHub(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()

	// Worker a: a raw registered link this test holds.
	aDown, aConn := transport.Pipe(transport.WithBuffer(8))
	if err := HelloWorker(aConn, "a"); err != nil {
		t.Fatalf("HelloWorker(a): %v", err)
	}
	if err := hub.Attach(aDown); err != nil {
		t.Fatalf("Attach worker a: %v", err)
	}
	_, bServe := serveTestWorker(t, hub, "b", HonestFactory)

	// Link 1: the raw mux wire protocol, so a corrupt frame can be injected
	// after the handshakes went through clean.
	sup1, hubUp1 := transport.Pipe(transport.WithBuffer(8))
	if err := sendHello(sup1, helloMsg{Role: helloRoleMux, Worker: "sup-1"}); err != nil {
		t.Fatalf("mux hello: %v", err)
	}
	if err := hub.Attach(hubUp1); err != nil {
		t.Fatalf("Attach mux link 1: %v", err)
	}
	if err := sendHello(sup1, helloMsg{Role: helloRoleOpen, Worker: "a", Route: 1}); err != nil {
		t.Fatalf("open hello: %v", err)
	}
	waitBinds(t, hub, "a", 1)

	// Link 2: a healthy mux with a route to b.
	m2, hubUp2 := openTestMux(t, hub, "sup-2")
	routeB, err := m2.OpenRoute("b")
	if err != nil {
		t.Fatalf("OpenRoute(b): %v", err)
	}

	// One garbled envelope on link 1.
	garbler := transport.WithFaults(sup1, transport.FaultPlan{GarbleProb: 1, Seed: 99})
	if err := garbler.Send(transport.Message{
		Type:    msgRouted,
		Payload: encodeRouted([]routedEntry{{Route: 1, Type: msgVerdict, Payload: []byte{1}}}),
	}); err != nil {
		t.Fatalf("send corrupt frame: %v", err)
	}

	// Worker a's route dies with its physical link.
	if _, err := aConn.Recv(); err == nil {
		t.Fatal("worker a's link survived corruption on its shared supervisor link")
	}

	// Link 2 still relays: a full interactive task completes after the
	// quarantine.
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	outcome, err := runDialogue(sup, routeB, syntheticTask(128))
	if err != nil {
		t.Fatalf("RunTask over surviving link: %v", err)
	}
	if !outcome.Verdict.Accepted {
		t.Errorf("honest task rejected after unrelated link quarantine: %s", outcome.Verdict.Reason)
	}

	_ = routeB.Close()
	if err := <-bServe; err != nil {
		t.Errorf("participant b serve: %v", err)
	}
	_ = m2.Close()
	_ = sup1.Close()
	_ = aConn.Close()
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close: %v", err)
	}

	snap := hub.Snapshot()
	if got := snap.MuxCorruptFrames; got != 1 {
		t.Errorf("hub counted %d mux-corrupt frames, want 1", got)
	}
	if st := snap.Routes["a"]; st.CorruptFrames != 0 {
		t.Errorf("unattributable link damage was charged to worker a: %+v", st)
	}
	// Both links' bytes are all in a ledger, the corrupt frame included.
	physRecv, physSent := endpointBytes([]transport.Conn{hubUp1, hubUp2})
	if acctRecv, acctSent := snap.SupervisorLinkBytes(); physRecv != acctRecv || physSent != acctSent {
		t.Errorf("supervisor links %dB in / %dB out, ledgers account %dB / %dB: %+v", physRecv, physSent, acctRecv, acctSent, snap)
	}
}

// TestMuxCorruptWorkerFrameQuarantinesRouteNotLink pins the other half of
// the fault rule: a CRC-corrupt frame on a worker link names its worker, so
// only that worker's route is quarantined — the supervisor gets its close
// notice — and it is counted against the worker, while the shared
// supervisor link and the sibling route on it keep relaying.
func TestMuxCorruptWorkerFrameQuarantinesRouteNotLink(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()

	// Worker a: a raw registered link this test holds, so a corrupt frame
	// can be injected once the route is bound. Worker b: a participant.
	aDown, aConn := transport.Pipe(transport.WithBuffer(8))
	if err := HelloWorker(aConn, "a"); err != nil {
		t.Fatalf("HelloWorker(a): %v", err)
	}
	if err := hub.Attach(aDown); err != nil {
		t.Fatalf("Attach worker a: %v", err)
	}
	b, err := NewParticipant("b", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant(b): %v", err)
	}
	bDown, bConn := transport.Pipe(transport.WithBuffer(8))
	if err := HelloWorker(bConn, "b"); err != nil {
		t.Fatalf("HelloWorker(b): %v", err)
	}
	if err := hub.Attach(bDown); err != nil {
		t.Fatalf("Attach worker b: %v", err)
	}
	bServe := make(chan error, 1)
	go func() { bServe <- b.Serve(bConn) }()

	m, hubUp := openTestMux(t, hub, "sup")
	routeA, err := m.OpenRoute("a")
	if err != nil {
		t.Fatalf("OpenRoute(a): %v", err)
	}
	routeB, err := m.OpenRoute("b")
	if err != nil {
		t.Fatalf("OpenRoute(b): %v", err)
	}
	waitBinds(t, hub, "a", 1)

	// One clean frame crosses the route, then worker a sends a garbled one.
	clean := transport.Message{Type: msgVerdictAck, Payload: []byte{7}}
	if err := aConn.Send(clean); err != nil {
		t.Fatalf("send clean frame: %v", err)
	}
	got, err := routeA.Recv()
	if err != nil || got.Type != clean.Type || !bytes.Equal(got.Payload, clean.Payload) {
		t.Fatalf("route a: got %+v, %v; want the clean frame", got, err)
	}
	garbled := transport.Message{Type: msgVerdictAck, Payload: []byte{8, 9}}
	if err := transport.WithFaults(aConn, transport.FaultPlan{GarbleProb: 1, Seed: 99}).Send(garbled); err != nil {
		t.Fatalf("send corrupt frame: %v", err)
	}

	// Route a ends with a close notice and the worker's own link is closed
	// under it.
	if _, err := routeA.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("route a after a corrupt worker frame: %v, want io.EOF", err)
	}
	if _, err := aConn.Recv(); err == nil {
		t.Fatal("worker a's link survived its own corrupt frame")
	}

	// The link and the sibling route live on: a full interactive task
	// completes after the quarantine.
	if m.Failed() {
		t.Fatal("one worker's corrupt frame failed the shared supervisor link")
	}
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	outcome, err := runDialogue(sup, routeB, syntheticTask(128))
	if err != nil {
		t.Fatalf("RunTask over the sibling route: %v", err)
	}
	if !outcome.Verdict.Accepted {
		t.Errorf("honest task rejected after the sibling's quarantine: %s", outcome.Verdict.Reason)
	}
	if m.Failed() {
		t.Fatal("shared supervisor link failed after the quarantine")
	}

	_ = routeB.Close()
	if err := <-bServe; err != nil {
		t.Errorf("participant b serve: %v", err)
	}
	_ = m.Close()
	_ = aConn.Close()
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close: %v", err)
	}

	snap := hub.Snapshot()
	ast, bst := snap.Routes["a"], snap.Routes["b"]
	if ast.CorruptFrames != 1 || ast.CorruptBytes != garbled.FrameSize() {
		t.Errorf("worker a: %d corrupt frames, %dB; want 1 frame of %dB", ast.CorruptFrames, ast.CorruptBytes, garbled.FrameSize())
	}
	if ast.ToSupervisor.IngressBytes != clean.FrameSize() || ast.ToSupervisor.EgressBytes != clean.FrameSize() {
		t.Errorf("worker a relayed %dB in / %dB out toward the supervisor, want the clean frame's %dB both ways: %+v",
			ast.ToSupervisor.IngressBytes, ast.ToSupervisor.EgressBytes, clean.FrameSize(), ast)
	}
	if bst.CorruptFrames != 0 || snap.MuxCorruptFrames != 0 {
		t.Errorf("worker a's damage was charged elsewhere: b %+v, %d mux-corrupt frames", bst, snap.MuxCorruptFrames)
	}
	// Both legs reconcile exactly, the corrupt frame included.
	downRecv, downSent := endpointBytes([]transport.Conn{aDown, bDown})
	workerRecv, workerSent := snap.EvictedBytes, int64(0)
	for _, st := range snap.Routes {
		workerRecv += st.WorkerHelloBytes + st.ToSupervisor.IngressBytes + st.CorruptBytes
		workerSent += st.ToWorker.EgressBytes
	}
	if downRecv != workerRecv || downSent != workerSent {
		t.Errorf("worker links %dB in / %dB out, ledgers account %dB / %dB: %+v", downRecv, downSent, workerRecv, workerSent, snap)
	}
	physRecv, physSent := endpointBytes([]transport.Conn{hubUp})
	if acctRecv, acctSent := snap.SupervisorLinkBytes(); physRecv != acctRecv || physSent != acctSent {
		t.Errorf("supervisor link %dB in / %dB out, ledgers account %dB / %dB: %+v", physRecv, physSent, acctRecv, acctSent, snap)
	}
}

// TestMuxCreditBackpressureIsolatesSlowRoute pins per-route flow control
// and cross-route fairness on one shared link: a route whose worker stops
// reading runs out of credit and blocks its own sender a handful of frames
// in, while a sibling route pushes its full load through the same physical
// link; draining the slow worker releases the stalled sender.
func TestMuxCreditBackpressureIsolatesSlowRoute(t *testing.T) {
	window := WithRouteCreditWindow(4096)
	hub := NewBrokerHub(window)
	defer hub.Close()
	slowDown, slowConn := transport.Pipe(transport.WithBuffer(8))
	if err := HelloWorker(slowConn, "slow"); err != nil {
		t.Fatalf("HelloWorker(slow): %v", err)
	}
	if err := hub.Attach(slowDown); err != nil {
		t.Fatalf("Attach slow: %v", err)
	}
	fastDown, fastConn := transport.Pipe(transport.WithBuffer(8))
	if err := HelloWorker(fastConn, "fast"); err != nil {
		t.Fatalf("HelloWorker(fast): %v", err)
	}
	if err := hub.Attach(fastDown); err != nil {
		t.Fatalf("Attach fast: %v", err)
	}
	m, _ := openTestMux(t, hub, "supervisor", window)
	slowRoute, err := m.OpenRoute("slow")
	if err != nil {
		t.Fatalf("OpenRoute(slow): %v", err)
	}
	fastRoute, err := m.OpenRoute("fast")
	if err != nil {
		t.Fatalf("OpenRoute(fast): %v", err)
	}
	waitBinds(t, hub, "slow", 1)
	waitBinds(t, hub, "fast", 1)

	const frames = 100
	payload := make([]byte, 1024)
	var slowSent atomic.Int64
	slowDone := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := slowRoute.Send(transport.Message{Type: msgResultChunk, Payload: payload}); err != nil {
				slowDone <- err
				return
			}
			slowSent.Add(1)
		}
		slowDone <- nil
	}()

	fastRecvd := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if _, err := fastConn.Recv(); err != nil {
				fastRecvd <- err
				return
			}
		}
		fastRecvd <- nil
	}()
	for i := 0; i < frames; i++ {
		if err := fastRoute.Send(transport.Message{Type: msgResultChunk, Payload: payload}); err != nil {
			t.Fatalf("fast route send %d: %v", i, err)
		}
	}
	if err := <-fastRecvd; err != nil {
		t.Fatalf("fast worker receive: %v", err)
	}
	// The fast route pushed 100KiB through the shared link while the slow
	// route's sender ran out of credit: no head-of-line blocking, and the
	// stalled route holds only a window's worth (plus the worker pipe's
	// buffer) at the hub instead of growing without bound.
	if got := slowSent.Load(); got >= frames/2 {
		t.Fatalf("slow route sent %d of %d frames with no reader; credit flow control is not engaging", got, frames)
	}

	for i := 0; i < frames; i++ {
		if _, err := slowConn.Recv(); err != nil {
			t.Fatalf("slow worker drain %d: %v", i, err)
		}
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow route sender: %v", err)
	}
	if got := slowSent.Load(); got != frames {
		t.Fatalf("slow route sent %d of %d frames after its worker drained", got, frames)
	}

	_ = slowRoute.Close()
	_ = fastRoute.Close()
	_ = m.Close()
	_ = slowConn.Close()
	_ = fastConn.Close()
}

// TestRunSimBrokeredMuxReport pins the sim-level mux surface: a clean
// brokered pipelined run rides exactly one physical supervisor link, the
// report's mux ledgers are populated, and the per-worker route snapshots
// reconcile with the supervisor's endpoint totals. Every route must show
// traffic, so the run carries enough tasks that the shared queue cannot
// drain before the last route's worker claims from it.
func TestRunSimBrokeredMuxReport(t *testing.T) {
	cfg := SimConfig{
		Spec:           SchemeSpec{Kind: SchemeNICBS, M: 8, ChainIters: 1},
		Workload:       "synthetic",
		Seed:           13,
		TaskSize:       128,
		Tasks:          96,
		Honest:         3,
		PipelineWindow: 2,
		Broker:         true,
	}
	report, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	hub := report.Broker
	if hub == nil || hub.RelayedMsgs == 0 {
		t.Fatalf("broker accounting empty: %+v", hub)
	}
	if hub.MuxLinks != 1 {
		t.Errorf("clean run used %d physical supervisor links, want 1", hub.MuxLinks)
	}
	if hub.RoutesOpened != int64(cfg.participants()) {
		t.Errorf("opened %d routes, want one per participant (%d)", hub.RoutesOpened, cfg.participants())
	}
	if len(hub.Routes) != cfg.participants() {
		t.Fatalf("report carries %d route snapshots, want %d", len(hub.Routes), cfg.participants())
	}
	var toWorkerIn, toSupEgress int64
	for name, st := range hub.Routes {
		if st.Binds != 1 || st.ToWorker.IngressBytes == 0 || st.ToSupervisor.EgressBytes == 0 {
			t.Errorf("route snapshot for %s looks empty: %+v", name, st)
		}
		toWorkerIn += st.ToWorker.IngressBytes
		toSupEgress += st.ToSupervisor.EgressBytes
	}
	// Route conns credit inner frame sizes, so the endpoint totals must
	// equal the hub's inner-frame ledgers exactly.
	if report.SupervisorBytesSent != toWorkerIn {
		t.Errorf("supervisor sent %dB, hub ToWorker ingress %dB", report.SupervisorBytesSent, toWorkerIn)
	}
	if report.SupervisorBytesRecv != toSupEgress {
		t.Errorf("supervisor received %dB, hub ToSupervisor egress %dB", report.SupervisorBytesRecv, toSupEgress)
	}
}

// TestRunSimRoutesFanOut pins the -routes surface: a brokered pipelined run
// with Routes > participants opens the surplus round-robin as extra
// multiplexed routes to the same workers, all tasks complete, and the extra
// dials are not misreported as reconnects.
func TestRunSimRoutesFanOut(t *testing.T) {
	cfg := SimConfig{
		Spec:           SchemeSpec{Kind: SchemeNICBS, M: 8, ChainIters: 1},
		Workload:       "synthetic",
		Seed:           13,
		TaskSize:       128,
		Tasks:          8,
		Honest:         2,
		PipelineWindow: 2,
		Broker:         true,
		Routes:         6,
	}
	report, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if report.TasksAssigned != cfg.Tasks {
		t.Errorf("completed %d of %d tasks", report.TasksAssigned, cfg.Tasks)
	}
	for _, tv := range report.TaskVerdicts {
		if !tv.Verdict.Accepted {
			t.Errorf("honest task %d rejected: %s", tv.TaskID, tv.Verdict.Reason)
		}
	}
	if report.Broker.MuxLinks != 1 {
		t.Errorf("clean fan-out used %d physical supervisor links, want 1", report.Broker.MuxLinks)
	}
	if report.Broker.RoutesOpened != int64(cfg.Routes) {
		t.Errorf("opened %d routes, want %d", report.Broker.RoutesOpened, cfg.Routes)
	}
	for _, p := range report.Participants {
		if p.Reconnects != 0 {
			t.Errorf("participant %s reports %d reconnects in a clean run; extra routes must not count", p.ID, p.Reconnects)
		}
	}
}

// TestSimConfigRoutesValidation pins the Routes preconditions.
func TestSimConfigRoutesValidation(t *testing.T) {
	base := SimConfig{
		Spec:     SchemeSpec{Kind: SchemeCBS, M: 4},
		Workload: "synthetic",
		TaskSize: 16,
		Tasks:    1,
		Honest:   2,
	}
	noBroker := base
	noBroker.Routes = 2
	noBroker.PipelineWindow = 2
	if _, err := RunSim(noBroker); err == nil {
		t.Error("Routes without Broker was accepted")
	}
	windowed := base
	windowed.Routes = 2
	windowed.Broker = true
	windowed.Spec.WindowTasks, windowed.Spec.WindowSamples = 4, 2
	if _, err := RunSim(windowed); err == nil {
		t.Error("Routes with window commitments was accepted")
	}
	tooFew := base
	tooFew.Broker = true
	tooFew.PipelineWindow = 2
	tooFew.Routes = 1
	if _, err := RunSim(tooFew); err == nil {
		t.Error("Routes below the participant count was accepted")
	}
}
