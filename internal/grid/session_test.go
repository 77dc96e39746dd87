package grid

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"uncheatgrid/internal/cheat"
	"uncheatgrid/internal/core"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// sessionFixture wires one participant serving on its own goroutine and
// returns the supervisor-side connection plus a shutdown func.
func sessionFixture(t *testing.T, factory ProducerFactory, opts ...ParticipantOption) (transport.Conn, func()) {
	t.Helper()
	p, err := NewParticipant("p", factory, opts...)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(partConn) }()
	shutdown := func() {
		t.Helper()
		_ = supConn.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("participant serve: %v", err)
		}
	}
	return supConn, shutdown
}

// runSessionTasks runs every task through one session with the given window
// and returns the outcomes indexed like tasks.
func runSessionTasks(t *testing.T, sess *Session, tasks []Task) []*TaskOutcome {
	t.Helper()
	outcomes := make([]*TaskOutcome, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func(i int, task Task) {
			defer wg.Done()
			outcomes[i], errs[i] = sess.RunTask(task)
		}(i, task)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session task %d: %v", i, err)
		}
	}
	return outcomes
}

// TestSessionMatchesDialogue is the pipelining acceptance test: a session
// with window 4 over a single connection must produce byte-identical
// verdicts and reports to the serial one-dialogue-per-task run for equal
// seeds (recorded in golden_runs.json), however the in-flight exchanges
// interleave.
func TestSessionMatchesDialogue(t *testing.T) {
	// A half-lazy cheater makes the comparison meaningful: verdicts hinge
	// on the per-task challenge randomness and the cheater's claimed set.
	conn, shutdown := sessionFixture(t, SemiHonestFactory(0.6, 77))
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 12}, Seed: 5, CrossCheckReports: true})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(conn, 4)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	outcomes := runSessionTasks(t, sess, poolTasks(8, 128))
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	shutdown()

	got := make([]goldenOutcome, len(outcomes))
	for i, outcome := range outcomes {
		got[i] = goldenOutcomeOf(outcome)
	}
	assertGoldenOutcomes(t, "TestSessionMatchesDialogue", got)
}

// assertSessionLedger checks the accounting identity of a closed session that
// was its connection's only user: the endpoint's frame-level counters are
// the tasks' tagged bytes plus the session's framing overhead, per direction.
func assertSessionLedger(t *testing.T, conn transport.Conn, sess *Session, outcomes []*TaskOutcome) {
	t.Helper()
	var taskSent, taskRecv int64
	for _, o := range outcomes {
		if o.BytesSent <= 0 || o.BytesRecv <= 0 {
			t.Fatalf("task %d has non-positive traffic: sent=%d recv=%d", o.Task.ID, o.BytesSent, o.BytesRecv)
		}
		taskSent += o.BytesSent
		taskRecv += o.BytesRecv
	}
	ovSent, ovRecv := sess.OverheadBytes()
	if ovSent <= 0 || ovRecv <= 0 {
		t.Fatalf("no framing overhead recorded: sent=%d recv=%d", ovSent, ovRecv)
	}
	if got, want := conn.Stats().BytesSent(), taskSent+ovSent; got != want {
		t.Errorf("BytesSent = %d, task sum + overhead = %d", got, want)
	}
	if got, want := conn.Stats().BytesRecv(), taskRecv+ovRecv; got != want {
		t.Errorf("BytesRecv = %d, task sum + overhead = %d", got, want)
	}
}

// TestSessionByteAccountingExact pins the session accounting invariant: the
// connection's exact frame-level counters decompose into per-task tagged
// bytes plus session framing overhead, with nothing lost or double-counted.
func TestSessionByteAccountingExact(t *testing.T) {
	conn, shutdown := sessionFixture(t, HonestFactory)
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(conn, 4)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	outcomes := runSessionTasks(t, sess, poolTasks(6, 128))
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}

	assertSessionLedger(t, conn, sess, outcomes)
	shutdown()
}

// TestSessionBatchingSavesFrames verifies the coalescing actually batches:
// a window-n run of n tasks must use fewer frames than one exchange at a
// time, whose every message travels alone. This is the pipe case, where the
// writer never waits for a second message and only an injected per-frame
// delay lets the queue build; TestSessionCoalescesOverTCP is the case with
// nothing injected.
func TestSessionBatchingSavesFrames(t *testing.T) {
	const tasks = 8

	dialogue := func() int64 {
		conn, shutdown := sessionFixture(t, HonestFactory)
		defer shutdown()
		sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 6}, Seed: 2})
		if err != nil {
			t.Fatalf("NewSupervisor: %v", err)
		}
		for _, task := range poolTasks(tasks, 64) {
			if _, err := runDialogue(sup, conn, task); err != nil {
				t.Fatalf("RunTask: %v", err)
			}
		}
		return conn.Stats().MsgsSent() + conn.Stats().MsgsRecv()
	}()

	// A small link delay holds the writers in Send long enough for the
	// concurrent tasks' messages to pile up and coalesce deterministically.
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	p, err := NewParticipant("p", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(transport.WithLatency(partConn, 500*time.Microsecond)) }()

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 6}, Seed: 2})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(transport.WithLatency(supConn, 500*time.Microsecond), tasks)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	runSessionTasks(t, sess, poolTasks(tasks, 64))
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	pipelined := supConn.Stats().MsgsSent() + supConn.Stats().MsgsRecv()
	_ = supConn.Close()
	if err := <-serveErr; err != nil {
		t.Errorf("participant serve: %v", err)
	}

	if pipelined >= dialogue {
		t.Errorf("pipelined run used %d frames, dialogue %d — no coalescing", pipelined, dialogue)
	}
}

// TestSessionAllSchemes drives every pipelinable scheme through a session:
// the batched codecs must carry commitments, uploads, ringer hits, and
// verdicts alike.
func TestSessionAllSchemes(t *testing.T) {
	specs := []SchemeSpec{
		{Kind: SchemeCBS, M: 6},
		{Kind: SchemeNICBS, M: 6, ChainIters: 2},
		{Kind: SchemeCBS, M: 6, SubtreeHeight: 3},
		{Kind: SchemeNaive, M: 6},
		{Kind: SchemeRinger, M: 4},
	}
	for _, spec := range specs {
		t.Run(fmt.Sprintf("%v-ell%d", spec.Kind, spec.SubtreeHeight), func(t *testing.T) {
			conn, shutdown := sessionFixture(t, HonestFactory)
			defer shutdown()
			sup, err := NewSupervisor(SupervisorConfig{Spec: spec, Seed: 11})
			if err != nil {
				t.Fatalf("NewSupervisor: %v", err)
			}
			sess, err := sup.OpenSession(conn, 3)
			if err != nil {
				t.Fatalf("OpenSession: %v", err)
			}
			outcomes := runSessionTasks(t, sess, poolTasks(5, 64))
			if err := sess.Close(); err != nil {
				t.Fatalf("session close: %v", err)
			}
			for _, o := range outcomes {
				if !o.Verdict.Accepted {
					t.Errorf("honest task %d rejected: %s", o.Task.ID, o.Verdict.Reason)
				}
			}
		})
	}
}

// TestSessionRejectsBadConfig covers session construction and lifecycle
// validation.
func TestSessionRejectsBadConfig(t *testing.T) {
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	if _, err := sup.OpenSession(nil, 4); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil conn: err = %v, want ErrBadConfig", err)
	}
	supConn, _ := transport.Pipe()
	if _, err := sup.OpenSession(supConn, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("window 0: err = %v, want ErrBadConfig", err)
	}

	// Double-check sessions exist (RunTaskSource drives replica exchanges
	// through them), but a lone RunTask has no sibling replicas to compare
	// against and is refused.
	dc, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1}})
	if err != nil {
		t.Fatalf("NewSupervisor(double-check): %v", err)
	}
	dcSess, err := dc.OpenSession(supConn, 4)
	if err != nil {
		t.Fatalf("double-check OpenSession: %v", err)
	}
	if _, err := dcSess.RunTask(poolTasks(1, 64)[0]); !errors.Is(err, ErrBadConfig) {
		t.Errorf("double-check session RunTask: err = %v, want ErrBadConfig", err)
	}
	_ = dcSess.Close()

	sess, err := sup.OpenSession(supConn, 2)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := sess.RunTask(poolTasks(1, 64)[0]); !errors.Is(err, ErrBadConfig) {
		t.Errorf("RunTask after Close: err = %v, want ErrBadConfig", err)
	}
}

// TestSessionRejectsTaskIDReuse pins the routing-key contract: a task ID
// may be used once per session, and reuse fails deterministically instead
// of racing the participant-side teardown of the finished task.
func TestSessionRejectsTaskIDReuse(t *testing.T) {
	conn, shutdown := sessionFixture(t, HonestFactory)
	defer shutdown()
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 1})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(conn, 2)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	task := poolTasks(1, 64)[0]
	if _, err := sess.RunTask(task); err != nil {
		t.Fatalf("first RunTask: %v", err)
	}
	if _, err := sess.RunTask(task); !errors.Is(err, ErrBadConfig) {
		t.Errorf("task ID reuse: err = %v, want ErrBadConfig", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServePipelinedProtocolErrorClosesConn covers the participant-side
// protocol-error path: a message for an unknown task must fail the serve
// loop AND close the connection so the supervisor's session cannot block
// forever on a half-dead exchange.
func TestServePipelinedProtocolErrorClosesConn(t *testing.T) {
	p, err := NewParticipant("p", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(4))
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(partConn) }()

	batch := encodeBatch([]taggedMsg{{TaskID: 7, Type: msgCommit, Payload: []byte{1}}})
	if err := supConn.Send(transport.Message{Type: msgBatch, Payload: batch}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, ErrUnexpectedMessage) {
		t.Errorf("serve error = %v, want ErrUnexpectedMessage", err)
	}
	// The participant must have closed its side; our next receive returns
	// promptly instead of hanging.
	if _, err := supConn.Recv(); err == nil {
		t.Error("connection still delivering after participant protocol error")
	}
	_ = supConn.Close()
}

// TestSessionTransportError closes the connection out from under an open
// session: in-flight tasks must fail with an error, not hang.
func TestSessionTransportError(t *testing.T) {
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	_ = partConn.Close()
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(supConn, 2)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if _, err := sess.RunTask(poolTasks(1, 64)[0]); err == nil {
		t.Error("RunTask over a closed connection succeeded")
	}
	_ = sess.Close()
	_ = supConn.Close()
}

// TestSessionParticipantTaskFailureAborts covers the failure path of a
// pipelined task on the worker side: a producer factory that errors cannot
// answer the exchange, so the participant must abort the session (closing
// the connection) and the supervisor's RunTask must fail instead of
// waiting forever for a commitment.
func TestSessionParticipantTaskFailureAborts(t *testing.T) {
	boom := errors.New("factory boom")
	p, err := NewParticipant("p", func(workload.Function) (cheat.Producer, error) { return nil, boom })
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(partConn) }()

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(supConn, 2)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if _, err := sess.RunTask(poolTasks(1, 64)[0]); err == nil {
		t.Error("RunTask succeeded against a participant whose task failed")
	}
	_ = sess.Close()
	_ = supConn.Close()
	if err := <-serveErr; !errors.Is(err, boom) {
		t.Errorf("Serve error = %v, want the task failure cause", err)
	}
}

// failSendConn delivers receives normally but fails every send — the shape
// of a broken write half with a healthy read half.
type failSendConn struct {
	transport.Conn
}

func (c *failSendConn) Send(transport.Message) error {
	return errors.New("send boom")
}

// TestSessionWriterFailurePoisonsSession pins the asynchronous-send failure
// path: enqueue returns before the frame hits the wire, so a send error
// must poison the whole session and fail blocked RunTask calls instead of
// leaving them waiting for a reply to a frame that was discarded.
func TestSessionWriterFailurePoisonsSession(t *testing.T) {
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(&failSendConn{Conn: supConn}, 2)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sess.RunTask(poolTasks(1, 64)[0])
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("RunTask succeeded although every send fails")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunTask hung after a writer send failure")
	}
	_ = sess.Close()
	_ = supConn.Close()
	_ = partConn.Close()
}

// TestRunTaskSourceWorkStealing runs many tasks over fewer connections
// than tasks: all outcomes must stream out, verdicts must be correct per
// executing participant, and the pool byte counters must match the
// outcome sums.
func TestRunTaskSourceWorkStealing(t *testing.T) {
	const participants, tasks = 4, 16
	cheaterAt := func(i int) bool { return i == 3 }
	conns, shutdown := poolFixture(t, participants, func(i int) ProducerFactory {
		if cheaterAt(i) {
			return SemiHonestFactory(0.3, uint64(100+i))
		}
		return HonestFactory
	})
	cheaterConn := conns[3]

	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 20},
		Seed: 42,
	}, participants*2)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(tasks, 128)), 2)
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}

	seen := make(map[uint64]bool)
	var sent, recv int64
	for so := range stream.Outcomes() {
		if seen[so.Outcome.Task.ID] {
			t.Errorf("task %d delivered twice", so.Outcome.Task.ID)
		}
		seen[so.Outcome.Task.ID] = true
		if want := so.Conn == cheaterConn; want == so.Outcome.Verdict.Accepted {
			t.Errorf("task %d on cheater-conn=%v: accepted=%v, reason=%q",
				so.Outcome.Task.ID, want, so.Outcome.Verdict.Accepted, so.Outcome.Verdict.Reason)
		}
		sent += so.Outcome.BytesSent
		recv += so.Outcome.BytesRecv
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	var wireSent, wireRecv int64
	for _, conn := range conns {
		wireSent += conn.Stats().BytesSent()
		wireRecv += conn.Stats().BytesRecv()
	}
	shutdown()

	if len(seen) != tasks {
		t.Errorf("streamed %d outcomes, want %d", len(seen), tasks)
	}
	// Pool counters mean wire traffic: per-task tagged bytes plus the
	// sessions' shared batch framing, matching the connections exactly.
	if pool.BytesSent() != wireSent || pool.BytesRecv() != wireRecv {
		t.Errorf("pool counters sent=%d recv=%d, wire totals sent=%d recv=%d",
			pool.BytesSent(), pool.BytesRecv(), wireSent, wireRecv)
	}
	if sent <= 0 || sent >= pool.BytesSent() || recv <= 0 || recv >= pool.BytesRecv() {
		t.Errorf("outcome byte sums (sent=%d recv=%d) should be positive and below the wire totals", sent, recv)
	}
}

// TestStreamRetireEveryConnEndsShort retires every connection after the
// first outcome: the stream must end cleanly with fewer outcomes than tasks
// instead of deadlocking.
func TestStreamRetireEveryConnEndsShort(t *testing.T) {
	conns, shutdown := poolFixture(t, 2, func(int) ProducerFactory { return HonestFactory })
	defer shutdown()
	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 4},
		Seed: 1,
	}, 4)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(32, 64)), 1)
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	count := 0
	for range stream.Outcomes() {
		if count++; count == 1 {
			for _, conn := range conns {
				stream.Retire(conn)
			}
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	// One exchange per connection may have been under way at the retirement.
	if count == 0 || count > 1+len(conns) {
		t.Errorf("streamed %d outcomes; want the first plus at most one in flight per connection", count)
	}
}

// TestRunTaskSourceSurvivesDeadConn closes one connection before the run:
// a transport failure is no longer a run-killing error — the dead
// connection's tasks restart on the healthy one and every outcome arrives.
func TestRunTaskSourceSurvivesDeadConn(t *testing.T) {
	conns, shutdown := poolFixture(t, 2, func(int) ProducerFactory { return HonestFactory })
	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 4},
	}, 2)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	_ = conns[1].Close()
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(8, 64)), 2)
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	count := 0
	for so := range stream.Outcomes() {
		count++
		if so.Conn != conns[0] {
			t.Error("outcome attributed to the dead connection")
		}
	}
	if err := stream.Err(); err != nil {
		t.Errorf("stream error: %v (dead connections should be survivable)", err)
	}
	if count != 8 {
		t.Errorf("streamed %d outcomes, want 8", count)
	}
	_ = conns[0].Close()
	shutdown()
}

// taggedPeer speaks the session wire format by hand for one task: every
// message travels task-tagged inside a msgBatch frame, and whatever the
// participant's writer coalesced is queued until expected.
type taggedPeer struct {
	t     *testing.T
	conn  transport.Conn
	id    uint64
	queue []taggedMsg
}

func (p *taggedPeer) send(typ uint8, payload []byte) {
	p.t.Helper()
	batch := encodeBatch([]taggedMsg{{TaskID: p.id, Type: typ, Payload: payload}})
	if err := p.conn.Send(transport.Message{Type: msgBatch, Payload: batch}); err != nil {
		p.t.Fatalf("send type %d: %v", typ, err)
	}
}

func (p *taggedPeer) expect(typ uint8) []byte {
	p.t.Helper()
	for len(p.queue) == 0 {
		frame, err := p.conn.Recv()
		if err != nil {
			p.t.Fatalf("recv (want type %d): %v", typ, err)
		}
		if frame.Type != msgBatch {
			p.t.Fatalf("got frame type %d, want batch", frame.Type)
		}
		if p.queue, err = decodeBatch(nil, frame.Payload); err != nil {
			p.t.Fatalf("decode batch: %v", err)
		}
	}
	tm := p.queue[0]
	p.queue = p.queue[1:]
	if tm.TaskID != p.id || tm.Type != typ {
		p.t.Fatalf("got type %d for task %d, want type %d for task %d", tm.Type, tm.TaskID, typ, p.id)
	}
	return tm.Payload
}

// commitmentRootVia runs one manual CBS exchange against a serving
// participant and returns the root it committed to.
func commitmentRootVia(t *testing.T, opts ...ParticipantOption) []byte {
	t.Helper()
	conn, shutdown := sessionFixture(t, HonestFactory, opts...)
	defer shutdown()

	task := Task{ID: 9, Start: 64, N: 512, Workload: "synthetic", Seed: 13}
	a := assignment{Task: task, Spec: SchemeSpec{Kind: SchemeCBS, M: 2}}
	peer := &taggedPeer{t: t, conn: conn, id: task.ID}
	peer.send(msgAssign, encodeAssignment(a))
	var commitment core.Commitment
	if err := commitment.UnmarshalBinary(peer.expect(msgCommit)); err != nil {
		t.Fatalf("decode commitment: %v", err)
	}
	peer.expect(msgReports)
	challenge := core.Challenge{Indices: []uint64{0, 511}}
	payload, err := challenge.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal challenge: %v", err)
	}
	peer.send(msgChallenge, payload)
	peer.expect(msgProofs)
	peer.send(msgVerdict, encodeVerdict(Verdict{Accepted: true}))
	peer.expect(msgVerdictAck)
	return commitment.Root
}

// TestServeRefusesBareAssign pins the one wire mode: a first frame that is
// not a msgBatch — here the bare msgAssign that used to open a per-task
// dialogue — is a protocol error, and the participant closes the connection.
func TestServeRefusesBareAssign(t *testing.T) {
	p, err := NewParticipant("p", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(4))
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(partConn) }()

	a := assignment{Task: poolTasks(1, 64)[0], Spec: SchemeSpec{Kind: SchemeCBS, M: 2}}
	if err := supConn.Send(transport.Message{Type: msgAssign, Payload: encodeAssignment(a)}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, ErrUnexpectedMessage) {
		t.Errorf("serve error = %v, want ErrUnexpectedMessage", err)
	}
	if _, err := supConn.Recv(); err == nil {
		t.Error("connection still delivering after a bare assignment")
	}
	if totals := p.Totals(); totals.Tasks != 0 || totals.FEvals != 0 {
		t.Errorf("participant worked on a bare assignment: %+v", totals)
	}
	_ = supConn.Close()
}

// TestParallelProverRootMatchesSequential pins the satellite guarantee of
// WithProverParallelism: the parallel-built commitment root is bit-identical
// to the sequential participant's for the same task.
func TestParallelProverRootMatchesSequential(t *testing.T) {
	sequential := commitmentRootVia(t)
	parallel := commitmentRootVia(t, WithProverParallelism(4))
	if !reflect.DeepEqual(sequential, parallel) {
		t.Errorf("parallel root %x != sequential root %x", parallel, sequential)
	}
	if len(sequential) == 0 {
		t.Error("empty commitment root")
	}
}

// TestRunSimPipelinedMatchesSerialSingleParticipant compares simulations at
// window 1 and window 4 against the serial dialogue run of the same
// single-participant pool (golden_runs.json): verdicts, reports, detection
// stats and participant counters must be identical.
func TestRunSimPipelinedMatchesSerialSingleParticipant(t *testing.T) {
	for _, window := range []int{0, 4} {
		report, err := RunSim(SimConfig{
			Spec:           SchemeSpec{Kind: SchemeCBS, M: 14},
			Workload:       "synthetic",
			Seed:           21,
			TaskSize:       128,
			Tasks:          6,
			SemiHonest:     1,
			HonestyRatio:   0.5,
			PipelineWindow: window,
		})
		if err != nil {
			t.Fatalf("RunSim(window %d): %v", window, err)
		}
		if want := max(1, window); report.PipelineWindow != want {
			t.Errorf("report PipelineWindow = %d, want %d", report.PipelineWindow, want)
		}
		assertGoldenSim(t, "TestRunSimPipelinedMatchesSerialSingleParticipant", report)
	}
}

// TestRunSimPipelinedPopulation sanity-checks a mixed pipelined population:
// every task assigned, cheaters caught, honest participants untouched.
func TestRunSimPipelinedPopulation(t *testing.T) {
	report, err := RunSim(SimConfig{
		Spec:           SchemeSpec{Kind: SchemeCBS, M: 20},
		Workload:       "synthetic",
		Seed:           8,
		TaskSize:       128,
		Tasks:          12,
		Honest:         3,
		SemiHonest:     2,
		HonestyRatio:   0.3,
		PipelineWindow: 3,
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if report.TasksAssigned != 12 {
		t.Errorf("TasksAssigned = %d, want 12", report.TasksAssigned)
	}
	// Every cheater that executed must be caught, every honest participant
	// must sail through.
	executedCheaters := 0
	total := 0
	for _, p := range report.Participants {
		total += p.Tasks
		switch {
		case p.Cheater && p.Tasks > 0:
			executedCheaters++
			if p.Rejected == 0 {
				t.Errorf("cheater %s executed %d tasks, none rejected", p.ID, p.Tasks)
			}
		case !p.Cheater && p.Rejected > 0:
			t.Errorf("honest participant %s rejected %d times", p.ID, p.Rejected)
		}
	}
	if report.CheatersDetected != executedCheaters {
		t.Errorf("CheatersDetected = %d, want %d (cheaters that executed)", report.CheatersDetected, executedCheaters)
	}
	if report.HonestAccused != 0 {
		t.Errorf("%d honest participants accused", report.HonestAccused)
	}
	if total != 12 {
		t.Errorf("participants executed %d tasks in total, want 12", total)
	}
}

// TestRunSimPipelinedBlacklist checks the blacklist gate under pipelining:
// a rejected participant stops claiming, and the run still terminates.
func TestRunSimPipelinedBlacklist(t *testing.T) {
	report, err := RunSim(SimConfig{
		Spec:           SchemeSpec{Kind: SchemeCBS, M: 20},
		Workload:       "synthetic",
		Seed:           31,
		TaskSize:       128,
		Tasks:          10,
		Honest:         2,
		SemiHonest:     1,
		HonestyRatio:   0.2,
		Blacklist:      true,
		PipelineWindow: 2,
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	// The cheater is only guaranteed to be caught (and blacklisted) if the
	// scheduler ever handed it a task; either way the run must terminate
	// and honest participants must stay clean.
	for _, p := range report.Participants {
		if p.Cheater && p.Tasks > 0 && !p.Blacklisted {
			t.Errorf("rejected cheater %s not blacklisted", p.ID)
		}
		if !p.Cheater && p.Rejected > 0 {
			t.Errorf("honest participant %s rejected", p.ID)
		}
	}
	if report.HonestAccused != 0 {
		t.Errorf("%d honest participants accused", report.HonestAccused)
	}
}

// TestSessionInboxReusesBackingArray pins the demultiplexer's inbox
// discipline: popping advances a head index, a drained inbox rewinds to the
// front of its backing array, and a popped slot no longer pins its payload —
// so a task's steady trickle of messages is routed in place instead of
// reallocating the inbox on every refill.
func TestSessionInboxReusesBackingArray(t *testing.T) {
	supConn, partConn := transport.Pipe()
	defer supConn.Close()
	defer partConn.Close()
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 1})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(supConn, 1)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer sess.Close()
	tc, err := sess.register(&taskAttempt{task: Task{ID: 7}})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	route := func(payloads ...string) {
		t.Helper()
		msgs := make([]taggedMsg, len(payloads))
		for i, p := range payloads {
			msgs[i] = taggedMsg{TaskID: 7, Type: msgCommit, Payload: []byte(p)}
		}
		frame := transport.Message{Type: msgBatch, Payload: encodeBatch(msgs)}
		sess.mu.Lock()
		err := sess.routeLocked(frame, frame.FrameSize())
		sess.mu.Unlock()
		if err != nil {
			t.Fatalf("routeLocked: %v", err)
		}
	}
	pop := func(want string) {
		t.Helper()
		m, err := tc.Recv()
		if err != nil || string(m.Payload) != want {
			t.Fatalf("Recv = %q, %v; want %q", m.Payload, err, want)
		}
	}

	route("a", "b", "c")
	pop("a")
	if tc.inbox[0].Payload != nil {
		t.Fatal("popped slot still pins its payload")
	}
	pop("b")
	route("d") // refill behind a half-drained inbox: order must hold
	pop("c")
	pop("d")
	if len(tc.inbox) != 0 || tc.head != 0 {
		t.Fatalf("drained inbox not rewound: len %d, head %d", len(tc.inbox), tc.head)
	}
	base := &tc.inbox[:1][0]
	for i := 0; i < 100; i++ {
		route("x")
		if &tc.inbox[0] != base {
			t.Fatalf("refill %d reallocated the inbox", i)
		}
		pop("x")
	}
}
