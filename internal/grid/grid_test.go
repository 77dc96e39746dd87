package grid

import (
	"context"
	"errors"
	"strings"
	"testing"

	"uncheatgrid/internal/transport"
)

// runDialogue runs one task over conn the way the paper states the
// protocol — one exchange, assignment through verdict, with the connection
// to itself: a window-1 session carrying that task alone. Successive calls
// may share a connection.
func runDialogue(sup *Supervisor, conn transport.Conn, task Task) (*TaskOutcome, error) {
	sess, err := sup.OpenSession(conn, 1)
	if err != nil {
		return nil, err
	}
	outcome, err := sess.RunTask(task)
	if cerr := sess.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return outcome, err
}

// runReplicated runs one double-check task over conns, one replica each,
// and returns the outcomes in replica order.
func runReplicated(t *testing.T, cfg SupervisorConfig, conns []transport.Conn, task Task) []*TaskOutcome {
	t.Helper()
	pool, err := NewSupervisorPool(cfg, len(conns))
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource([]Task{task}), 1, WithReplicas(len(conns)))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	outcomes := make([]*TaskOutcome, len(conns))
	for so := range stream.Outcomes() {
		outcomes[so.Outcome.Replica] = so.Outcome
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("replicated run: %v", err)
	}
	return outcomes
}

func runOneTask(t *testing.T, spec SchemeSpec, factory ProducerFactory, task Task) *TaskOutcome {
	t.Helper()
	supervisor, err := NewSupervisor(SupervisorConfig{Spec: spec, Seed: 42, CrossCheckReports: true})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	participant, err := NewParticipant("p0", factory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	serveErr := make(chan error, 1)
	go func() { serveErr <- participant.Serve(partConn) }()

	outcome, err := runDialogue(supervisor, supConn, task)
	if err != nil {
		t.Fatalf("RunTask: %v", err)
	}
	if err := supConn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return outcome
}

// passwordTask uses seed 247, whose hidden key (507) falls inside the first
// 4096 inputs, so windows of n >= 512 contain the screener hit.
func passwordTask(n uint64) Task {
	return Task{ID: 1, Start: 0, N: n, Workload: "password", Seed: 247}
}

func syntheticTask(n uint64) Task {
	return Task{ID: 2, Start: 0, N: n, Workload: "synthetic", Seed: 7}
}

func TestSchemeStringRoundTrip(t *testing.T) {
	for _, k := range []SchemeKind{SchemeCBS, SchemeNICBS, SchemeNaive, SchemeDoubleCheck, SchemeRinger} {
		parsed, err := ParseScheme(k.String())
		if err != nil {
			t.Fatalf("ParseScheme(%q): %v", k.String(), err)
		}
		if parsed != k {
			t.Fatalf("ParseScheme(%q) = %v", k.String(), parsed)
		}
	}
	if _, err := ParseScheme("nope"); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("ParseScheme(nope): err = %v, want ErrBadConfig", err)
	}
}

func TestCBSHonestParticipantAccepted(t *testing.T) {
	outcome := runOneTask(t,
		SchemeSpec{Kind: SchemeCBS, M: 10},
		HonestFactory, syntheticTask(256))
	if !outcome.Verdict.Accepted {
		t.Fatalf("honest participant rejected: %s", outcome.Verdict.Reason)
	}
	if outcome.BytesRecv == 0 || outcome.BytesSent == 0 {
		t.Fatal("no traffic accounted")
	}
}

func TestCBSCheaterRejected(t *testing.T) {
	// r = 0.3, m = 20: survival probability 0.3^20 ≈ 3e-11.
	outcome := runOneTask(t,
		SchemeSpec{Kind: SchemeCBS, M: 20},
		SemiHonestFactory(0.3, 99), syntheticTask(256))
	if outcome.Verdict.Accepted {
		t.Fatal("blatant cheater accepted")
	}
	if outcome.CheatIndex < 0 {
		t.Fatal("no convicting sample recorded")
	}
}

func TestCBSStorageBoundedProver(t *testing.T) {
	outcome := runOneTask(t,
		SchemeSpec{Kind: SchemeCBS, M: 5, SubtreeHeight: 4},
		HonestFactory, syntheticTask(256))
	if !outcome.Verdict.Accepted {
		t.Fatalf("storage-bounded honest participant rejected: %s", outcome.Verdict.Reason)
	}
}

func TestNICBSHonestAndCheater(t *testing.T) {
	spec := SchemeSpec{Kind: SchemeNICBS, M: 20, ChainIters: 2}
	honest := runOneTask(t, spec, HonestFactory, syntheticTask(128))
	if !honest.Verdict.Accepted {
		t.Fatalf("honest NI-CBS rejected: %s", honest.Verdict.Reason)
	}
	cheater := runOneTask(t, spec, SemiHonestFactory(0.3, 3), syntheticTask(128))
	if cheater.Verdict.Accepted {
		t.Fatal("naive cheater passed NI-CBS")
	}
}

func TestNaiveSchemeAndCommunicationGap(t *testing.T) {
	naive := runOneTask(t,
		SchemeSpec{Kind: SchemeNaive, M: 10},
		HonestFactory, syntheticTask(1024))
	if !naive.Verdict.Accepted {
		t.Fatalf("honest naive rejected: %s", naive.Verdict.Reason)
	}
	cbs := runOneTask(t,
		SchemeSpec{Kind: SchemeCBS, M: 10},
		HonestFactory, syntheticTask(1024))
	// The heart of the paper: participant upload shrinks from O(n) to
	// O(m log n). At n=1024, m=10 the gap is already >2x.
	if cbs.BytesRecv*2 > naive.BytesRecv {
		t.Fatalf("CBS upload %dB not well below naive %dB", cbs.BytesRecv, naive.BytesRecv)
	}
	naiveCheat := runOneTask(t,
		SchemeSpec{Kind: SchemeNaive, M: 20},
		SemiHonestFactory(0.3, 5), syntheticTask(1024))
	if naiveCheat.Verdict.Accepted {
		t.Fatal("cheater passed naive sampling")
	}
}

func TestRingerScheme(t *testing.T) {
	honest := runOneTask(t,
		SchemeSpec{Kind: SchemeRinger, M: 8},
		HonestFactory, passwordTask(512))
	if !honest.Verdict.Accepted {
		t.Fatalf("honest ringer rejected: %s", honest.Verdict.Reason)
	}
	cheater := runOneTask(t,
		SchemeSpec{Kind: SchemeRinger, M: 8},
		SemiHonestFactory(0.25, 9), passwordTask(512))
	if cheater.Verdict.Accepted {
		t.Fatal("lazy participant passed the ringer check (p = 0.25^8)")
	}
	if !strings.Contains(cheater.Verdict.Reason, "ringer") {
		t.Fatalf("reason %q does not mention ringers", cheater.Verdict.Reason)
	}
}

func TestMaliciousCaughtByCrossCheck(t *testing.T) {
	// The saboteur computes f correctly (commitment passes) but fabricates
	// reports. With cross-checking on m sampled indices and a high corrupt
	// probability, fabricated reports on sampled inputs convict it.
	outcome := runOneTask(t,
		SchemeSpec{Kind: SchemeCBS, M: 30},
		MaliciousFactory(0.9, 13), syntheticTask(256))
	if outcome.Verdict.Accepted {
		t.Fatal("malicious reporter accepted despite cross-check")
	}
	if !strings.Contains(outcome.Verdict.Reason, "report") {
		t.Fatalf("reason %q does not mention reports", outcome.Verdict.Reason)
	}
}

func TestReportsReachSupervisor(t *testing.T) {
	// The password search has exactly one interesting input; its report
	// must arrive regardless of scheme.
	for _, spec := range []SchemeSpec{
		{Kind: SchemeCBS, M: 5},
		{Kind: SchemeNICBS, M: 5, ChainIters: 1},
		{Kind: SchemeNaive, M: 5},
		{Kind: SchemeRinger, M: 5},
	} {
		t.Run(spec.Kind.String(), func(t *testing.T) {
			outcome := runOneTask(t, spec, HonestFactory, passwordTask(1<<12))
			if len(outcome.Reports) != 1 {
				t.Fatalf("%d reports, want exactly 1 (the found password)", len(outcome.Reports))
			}
			if !strings.Contains(outcome.Reports[0].S, "password found") {
				t.Fatalf("unexpected report %q", outcome.Reports[0].S)
			}
		})
	}
}

func TestDoubleCheckReplication(t *testing.T) {
	honest, err := NewParticipant("honest", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	cheater, err := NewParticipant("cheater", SemiHonestFactory(0.5, 21))
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	honest2, err := NewParticipant("honest2", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}

	type endpoint struct {
		sup, part transport.Conn
		errs      chan error
	}
	var endpoints []endpoint
	for _, p := range []*Participant{honest, cheater, honest2} {
		sup, part := transport.Pipe(transport.WithBuffer(8))
		ep := endpoint{sup: sup, part: part, errs: make(chan error, 1)}
		p := p
		go func() { ep.errs <- p.Serve(ep.part) }()
		endpoints = append(endpoints, ep)
	}

	outcomes := runReplicated(t,
		SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}, Seed: 7},
		[]transport.Conn{endpoints[0].sup, endpoints[1].sup, endpoints[2].sup},
		syntheticTask(64))
	if !outcomes[0].Verdict.Accepted || !outcomes[2].Verdict.Accepted {
		t.Fatal("honest replicas rejected")
	}
	if outcomes[1].Verdict.Accepted {
		t.Fatal("cheating replica accepted")
	}

	for _, ep := range endpoints {
		_ = ep.sup.Close()
		if err := <-ep.errs; err != nil {
			t.Fatalf("Serve: %v", err)
		}
	}
}

func TestParticipantTotals(t *testing.T) {
	supervisor, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 1})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	participant, err := NewParticipant("p", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	serveErr := make(chan error, 1)
	go func() { serveErr <- participant.Serve(partConn) }()

	const taskSize = 64
	for i := 0; i < 3; i++ {
		task := syntheticTask(taskSize)
		task.ID = uint64(i)
		task.Start = uint64(i * taskSize)
		if _, err := runDialogue(supervisor, supConn, task); err != nil {
			t.Fatalf("RunTask %d: %v", i, err)
		}
	}
	_ = supConn.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	totals := participant.Totals()
	if totals.Tasks != 3 || totals.Accepted != 3 || totals.Rejected != 0 {
		t.Fatalf("Totals = %+v", totals)
	}
	if totals.FEvals < 3*taskSize {
		t.Fatalf("FEvals = %d, want >= %d (honest work)", totals.FEvals, 3*taskSize)
	}
	if totals.Behavior != "honest" {
		t.Fatalf("Behavior = %q", totals.Behavior)
	}
}

func TestCheaterSavesWork(t *testing.T) {
	// The economics of cheating: a semi-honest participant with r=0.5
	// evaluates f about half as often as an honest one.
	run := func(factory ProducerFactory) int64 {
		participant, err := NewParticipant("p", factory)
		if err != nil {
			t.Fatalf("NewParticipant: %v", err)
		}
		supervisor, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 2}, Seed: 3})
		if err != nil {
			t.Fatalf("NewSupervisor: %v", err)
		}
		supConn, partConn := transport.Pipe(transport.WithBuffer(8))
		serveErr := make(chan error, 1)
		go func() { serveErr <- participant.Serve(partConn) }()
		if _, err := runDialogue(supervisor, supConn, syntheticTask(1024)); err != nil {
			t.Fatalf("RunTask: %v", err)
		}
		_ = supConn.Close()
		if err := <-serveErr; err != nil {
			t.Fatalf("Serve: %v", err)
		}
		return participant.Totals().FEvals
	}
	honestEvals := run(HonestFactory)
	cheaterEvals := run(SemiHonestFactory(0.5, 77))
	if cheaterEvals >= honestEvals*3/4 {
		t.Fatalf("cheater evals %d not well below honest %d", cheaterEvals, honestEvals)
	}
}

func TestBrokeredNICBS(t *testing.T) {
	// GRACE deployment (Section 4): supervisor ↔ broker hub ↔ participant.
	// NI-CBS completes through the identity-routed relay.
	supervisor, err := NewSupervisor(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeNICBS, M: 8, ChainIters: 2},
		Seed: 5,
	})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	participant, err := NewParticipant("p", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}

	hub := NewBrokerHub()
	defer hub.Close()
	partConn := registerTestWorker(t, hub, "p", 8)
	serveErr := make(chan error, 1)
	go func() { serveErr <- participant.Serve(partConn) }()
	mux, supConn := mustDialOneRouteMux(t, hub, "p")
	defer mux.Close()

	outcome, err := runDialogue(supervisor, supConn, syntheticTask(128))
	if err != nil {
		t.Fatalf("RunTask through broker: %v", err)
	}
	if !outcome.Verdict.Accepted {
		t.Fatalf("honest brokered participant rejected: %s", outcome.Verdict.Reason)
	}

	_ = supConn.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := hub.Close(); err != nil {
		t.Fatalf("hub Close: %v", err)
	}
	snap := hub.Snapshot()
	if snap.RelayedMsgs == 0 || snap.RelayedBytes == 0 {
		t.Fatal("broker relayed nothing")
	}
	st, ok := snap.Routes["p"]
	if !ok {
		t.Fatal("no route stats for worker p")
	}
	if st.Binds != 1 {
		t.Fatalf("Binds = %d, want 1", st.Binds)
	}
	if st.ToWorker.EgressMsgs == 0 || st.ToSupervisor.EgressMsgs == 0 {
		t.Fatalf("one-way relay: %+v", st)
	}
	// Toward the worker the assignment and the verdict are a round trip
	// apart, so they cross frame for frame. Toward the supervisor the
	// participant's batch frames may queue behind one another and the hub
	// merges them: each merge removes one frame and exactly that frame's
	// fixed cost, never a tagged byte — a lost frame would cost more. Each
	// side of the hub reconciles exactly with its endpoint counters (the
	// route's hellos ride the physical link, not the route conn).
	if st.ToWorker.IngressMsgs != st.ToWorker.EgressMsgs || st.ToWorker.IngressBytes != st.ToWorker.EgressBytes {
		t.Fatalf("clean dialogue relay toward the worker not byte-preserving: %+v", st)
	}
	batchFrameCost := transport.Message{Type: msgBatch, Payload: encodeBatch(nil)}.FrameSize()
	merged := st.ToSupervisor.IngressMsgs - st.ToSupervisor.EgressMsgs
	if merged < 0 || st.ToSupervisor.IngressBytes-st.ToSupervisor.EgressBytes != merged*batchFrameCost {
		t.Fatalf("relay toward the supervisor changed more than %dB per merged frame: %+v", batchFrameCost, st)
	}
	if got, want := supConn.Stats().BytesSent(), st.ToWorker.IngressBytes; got != want {
		t.Fatalf("supervisor sent %dB, hub accounted %dB", got, want)
	}
	if got, want := partConn.Stats().BytesRecv(), st.ToWorker.EgressBytes; got != want {
		t.Fatalf("participant received %dB, hub forwarded %dB", got, want)
	}
	if got, want := partConn.Stats().BytesSent(), st.WorkerHelloBytes+st.ToSupervisor.IngressBytes; got != want {
		t.Fatalf("participant sent %dB, hub accounted %dB", got, want)
	}
	if got, want := supConn.Stats().BytesRecv(), st.ToSupervisor.EgressBytes; got != want {
		t.Fatalf("supervisor received %dB, hub forwarded %dB", got, want)
	}
}

func TestGridOverTCP(t *testing.T) {
	// The same protocol over real sockets.
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	participant, err := NewParticipant("tcp-worker", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			serveErr <- err
			return
		}
		serveErr <- participant.Serve(conn)
	}()

	supConn, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	supervisor, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: 9})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	outcome, err := runDialogue(supervisor, supConn, syntheticTask(256))
	if err != nil {
		t.Fatalf("RunTask over TCP: %v", err)
	}
	if !outcome.Verdict.Accepted {
		t.Fatalf("rejected over TCP: %s", outcome.Verdict.Reason)
	}
	_ = supConn.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func TestGarbledProofIsRejectedNotAccepted(t *testing.T) {
	// Fault injection: a corrupted proof must yield a rejection or a
	// protocol error — never a false acceptance.
	supervisor, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 6}, Seed: 2})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	participant, err := NewParticipant("p", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	lossy := transport.WithFaults(partConn, transport.FaultPlan{GarbleProb: 1, Seed: 4})
	serveErr := make(chan error, 1)
	go func() { serveErr <- participant.Serve(lossy) }()

	outcome, err := runDialogue(supervisor, supConn, syntheticTask(64))
	if err == nil && outcome.Verdict.Accepted {
		t.Fatal("garbled traffic led to acceptance")
	}
	_ = supConn.Close()
	<-serveErr // error expected; any is fine as long as no acceptance
}

func TestTaskValidation(t *testing.T) {
	supervisor, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 1})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	supConn, partConn := transport.Pipe()
	defer supConn.Close()
	defer partConn.Close()

	if _, err := runDialogue(supervisor, supConn, Task{Workload: "synthetic", N: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty task: err = %v, want ErrBadConfig", err)
	}
	if _, err := runDialogue(supervisor, supConn, Task{Workload: "", N: 4}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("no workload: err = %v, want ErrBadConfig", err)
	}
	if _, err := runDialogue(supervisor, supConn, Task{Workload: "synthetic", N: maxTaskSize + 1}); !errors.Is(err, ErrTaskTooLarge) {
		t.Errorf("huge task: err = %v, want ErrTaskTooLarge", err)
	}
	if _, err := runDialogue(supervisor, supConn, Task{Workload: "unknown", N: 4}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSupervisorConfigValidation(t *testing.T) {
	if _, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 0}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("m=0: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeNICBS, M: 4}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NI-CBS without chain iters: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: 99, M: 4}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown scheme: err = %v, want ErrBadConfig", err)
	}
	// Double-check via RunTask is a config error.
	s, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	supConn, partConn := transport.Pipe()
	defer supConn.Close()
	defer partConn.Close()
	if _, err := runDialogue(s, supConn, syntheticTask(4)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("double-check RunTask: err = %v, want ErrBadConfig", err)
	}
}

func TestParticipantValidation(t *testing.T) {
	if _, err := NewParticipant("", HonestFactory); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty id: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewParticipant("x", nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil factory: err = %v, want ErrBadConfig", err)
	}
}
