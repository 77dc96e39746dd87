package grid

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uncheatgrid/internal/core"
	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/transport"
)

// cutConn delivers frames normally until `after` receives have happened,
// then fails every further operation with ErrClosed — a deterministic link
// cut at a known protocol point.
type cutConn struct {
	transport.Conn
	remaining atomic.Int64
}

func cutAfterRecv(conn transport.Conn, after int64) *cutConn {
	c := &cutConn{Conn: conn}
	c.remaining.Store(after)
	return c
}

func (c *cutConn) Recv() (transport.Message, error) {
	if c.remaining.Add(-1) < 0 {
		return transport.Message{}, transport.ErrClosed
	}
	return c.Conn.Recv()
}

// redialableParticipant serves a participant that can be dialed repeatedly:
// each dial opens a fresh pipe and serve goroutine, the model of a worker
// that reconnects after a link failure.
type redialableParticipant struct {
	t *testing.T
	p *Participant

	mu        sync.Mutex
	serveErrs []chan error
	supConns  []transport.Conn
}

func newRedialableParticipant(t *testing.T, factory ProducerFactory) *redialableParticipant {
	t.Helper()
	p, err := NewParticipant("p", factory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	return &redialableParticipant{t: t, p: p}
}

func (r *redialableParticipant) dial() transport.Conn {
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	ch := make(chan error, 1)
	go func() { ch <- r.p.Serve(partConn) }()
	r.mu.Lock()
	r.serveErrs = append(r.serveErrs, ch)
	r.supConns = append(r.supConns, supConn)
	r.mu.Unlock()
	return supConn
}

func (r *redialableParticipant) dials() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.supConns)
}

func (r *redialableParticipant) shutdown() {
	r.t.Helper()
	r.mu.Lock()
	conns := append([]transport.Conn(nil), r.supConns...)
	errs := append([]chan error(nil), r.serveErrs...)
	r.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	for i, ch := range errs {
		if err := <-ch; err != nil {
			r.t.Errorf("participant serve %d: %v", i, err)
		}
	}
}

// TestStreamResumesMidProtocol cuts the connection after the first reply
// frame of every scheme — guaranteeing the attempt is bound mid-protocol —
// and checks the stream reconnects, resumes, and completes every task with
// an accepting verdict for an honest participant.
func TestStreamResumesMidProtocol(t *testing.T) {
	specs := []SchemeSpec{
		{Kind: SchemeCBS, M: 6},
		{Kind: SchemeNICBS, M: 6, ChainIters: 2},
		{Kind: SchemeCBS, M: 6, SubtreeHeight: 3},
		{Kind: SchemeNaive, M: 6},
		{Kind: SchemeRinger, M: 4},
	}
	for _, spec := range specs {
		t.Run(fmt.Sprintf("%v-ell%d", spec.Kind, spec.SubtreeHeight), func(t *testing.T) {
			r := newRedialableParticipant(t, HonestFactory)
			defer r.shutdown()
			first := cutAfterRecv(r.dial(), 1)

			pool, err := NewSupervisorPool(SupervisorConfig{Spec: spec, Seed: 9}, 4)
			if err != nil {
				t.Fatalf("NewSupervisorPool: %v", err)
			}
			stream, err := pool.RunTaskSource(context.Background(),
				[]transport.Conn{first}, SliceTaskSource(poolTasks(3, 64)), 2,
				WithRedial(func(transport.Conn) (transport.Conn, error) { return r.dial(), nil }))
			if err != nil {
				t.Fatalf("RunTaskSource: %v", err)
			}
			count := 0
			for so := range stream.Outcomes() {
				count++
				if !so.Outcome.Verdict.Accepted {
					t.Errorf("honest task %d rejected after resume: %s", so.Outcome.Task.ID, so.Outcome.Verdict.Reason)
				}
			}
			if err := stream.Err(); err != nil {
				t.Fatalf("stream error: %v", err)
			}
			if count != 3 {
				t.Errorf("completed %d tasks, want 3", count)
			}
			if r.dials() < 2 {
				t.Errorf("no reconnect happened (dials = %d); the cut never forced a resume", r.dials())
			}
		})
	}
}

// TestResumedProofsReplayIsByteIdentical: a participant that resumes an
// exchange rebuilds its tree and re-derives its response, so wherever the
// resume picks up — and whether the prover stores the whole tree or rebuilds
// 2^ℓ-leaf subtrees per sample — the msgProofs payload is the same bytes: one
// multiproof, accepted against the commitment the fresh run sent.
func TestResumedProofsReplayIsByteIdentical(t *testing.T) {
	const n, m = 96, 5
	ch := core.Challenge{Indices: []uint64{0, 17, 17, 64, 95}}
	challenge, err := ch.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal challenge: %v", err)
	}
	for _, kind := range []SchemeKind{SchemeCBS, SchemeNICBS} {
		var want []byte
		for _, ell := range []int{0, 3} {
			for _, rc := range []struct {
				name string
				res  *resumeMsg
			}{
				{"fresh", nil},
				{"resumed after commit", &resumeMsg{HaveCommit: true}},
				{"resumed after reports", &resumeMsg{HaveCommit: true, HaveReports: true}},
				{"resumed after challenge", &resumeMsg{HaveCommit: true, HaveReports: true, Challenge: challenge}},
			} {
				name, res := fmt.Sprintf("%v/ℓ=%d/%s", kind, ell, rc.name), rc.res
				spec := SchemeSpec{Kind: kind, M: m, ChainIters: 1, SubtreeHeight: ell}
				exec, _ := newCommitExecution(t, n, spec, nil)
				conn := &scriptConn{sent: make(map[uint8][]byte)}
				var chain *hashchain.Chain
				if kind == SchemeNICBS {
					if chain, err = hashchain.New(spec.ChainIters); err != nil {
						t.Fatalf("hashchain.New: %v", err)
					}
				} else if res == nil || res.Challenge == nil {
					conn.in = []transport.Message{{Type: msgChallenge, Payload: challenge}}
				}
				if err := exec.runCBS(conn, kind == SchemeNICBS, chain, res); err != nil {
					t.Fatalf("%s: runCBS: %v", name, err)
				}
				proofs := conn.sent[msgProofs]
				if proofs == nil {
					t.Fatalf("%s: no proofs sent", name)
				}
				if want == nil {
					want = proofs
				}
				if !bytes.Equal(proofs, want) {
					t.Errorf("%s: msgProofs payload differs from the fresh full-tree run's", name)
				}
				if res != nil {
					continue
				}
				// The fresh run also sent its commitment: the replayed bytes
				// are a response the supervisor accepts against it.
				var commitment core.Commitment
				if err := commitment.UnmarshalBinary(conn.sent[msgCommit]); err != nil {
					t.Fatalf("%s: commitment: %v", name, err)
				}
				verifier, err := core.NewVerifier(commitment)
				if err != nil {
					t.Fatalf("%s: NewVerifier: %v", name, err)
				}
				var resp core.Response
				if err := resp.UnmarshalBinary(proofs); err != nil {
					t.Fatalf("%s: response: %v", name, err)
				}
				if kind == SchemeNICBS {
					err = verifier.VerifyNonInteractive(chain, m, &resp, core.AcceptAnyOutput)
				} else {
					err = verifier.Verify(ch, &resp, core.AcceptAnyOutput)
				}
				if err != nil {
					t.Errorf("%s: replayed response rejected: %v", name, err)
				}
			}
		}
	}
}

// TestStreamRestartsWhenRedialFails kills one of two connections mid-run
// with no redial available: the stranded tasks must restart from scratch on
// the surviving connection and none may be lost.
func TestStreamRestartsWhenRedialFails(t *testing.T) {
	doomed := newRedialableParticipant(t, HonestFactory)
	defer doomed.shutdown()
	healthy := newRedialableParticipant(t, HonestFactory)
	defer healthy.shutdown()

	conns := []transport.Conn{cutAfterRecv(doomed.dial(), 1), healthy.dial()}
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 6}, Seed: 3}, 4)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	const tasks = 8
	stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(tasks, 64)), 2)
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	seen := make(map[uint64]bool)
	for so := range stream.Outcomes() {
		if seen[so.Outcome.Task.ID] {
			t.Errorf("task %d delivered twice", so.Outcome.Task.ID)
		}
		seen[so.Outcome.Task.ID] = true
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("honest task %d rejected: %s", so.Outcome.Task.ID, so.Outcome.Verdict.Reason)
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(seen) != tasks {
		t.Errorf("completed %d tasks, want %d — tasks were silently dropped", len(seen), tasks)
	}
}

// TestDispatcherRevokesClaimOnRetire pins the revocable-claim protocol at
// the dispatcher level: a lease claimed before its connection is retired
// must fail to start, and its ticket must be rerouted to the shared queue —
// no instant survives between retirement and exchange start.
func TestDispatcherRevokesClaimOnRetire(t *testing.T) {
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}}, 2)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	_, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newDispatcher(pool, &streamConfig{}, SliceTaskSource(nil), 1, cancel)
	connA, _ := transport.Pipe()
	slotA := newConnSlot(connA, nil)
	d.registerConn(connA, slotA)
	d.pending = append(d.pending, ticket{task: poolTasks(1, 64)[0]})

	l, ok := d.claim(slotA)
	if !ok {
		t.Fatal("claim failed with pending work available")
	}
	// The connection is retired between claim and start — the exact window
	// the old polling gate left open.
	d.retireConn(connA)
	if d.start(l) {
		t.Fatal("lease started on a connection retired before exchange start")
	}
	d.mu.Lock()
	requeued := len(d.pending) == 1 && d.pending[0].task.ID == l.task.ID
	leaseGone := len(d.leases) == 0
	d.mu.Unlock()
	if !requeued {
		t.Error("revoked ticket was not rerouted to the shared queue")
	}
	if !leaseGone {
		t.Error("revoked lease still outstanding")
	}
}

// TestRetireRecallsPlacedTickets pins Retire on streams that place tickets
// on connections ahead of execution — pinned and replicated ones. A ticket
// that placement queued on a connection has begun nothing there, so
// retiring the connection must recall it and steer the rotation past the
// connection from then on; only what was already outstanding when Retire
// was called may still settle there. (Placed tickets used to be
// indistinguishable from mid-protocol resume pins: every later task of the
// connection's round-robin share still started on it.)
func TestRetireRecallsPlacedTickets(t *testing.T) {
	const tasks, highWater = 90, 6
	for _, replicas := range []int{0, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			conns, shutdown := poolFixture(t, 3, func(int) ProducerFactory { return HonestFactory })
			defer shutdown()
			spec := SchemeSpec{Kind: SchemeCBS, M: 4}
			opts := []StreamOption{WithPinnedPlacement(), WithHighWater(highWater)}
			perTask := 1
			if replicas > 0 {
				spec = SchemeSpec{Kind: SchemeDoubleCheck, M: 1}
				opts = append(opts, WithReplicas(replicas))
				perTask = replicas
			}
			pool, err := NewSupervisorPool(SupervisorConfig{Spec: spec, Seed: 3}, 0)
			if err != nil {
				t.Fatalf("NewSupervisorPool: %v", err)
			}
			stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(poolTasks(tasks, 64)), 1, opts...)
			if err != nil {
				t.Fatalf("RunTaskSource: %v", err)
			}
			retired, total, after := false, 0, 0
			hosts := make(map[uint64]map[transport.Conn]bool)
			for so := range stream.Outcomes() {
				total++
				id := so.Outcome.Task.ID
				if hosts[id] == nil {
					hosts[id] = make(map[transport.Conn]bool)
				}
				hosts[id][so.Conn] = true
				if so.Conn != conns[0] {
					continue
				}
				if retired {
					after++
				} else {
					stream.Retire(conns[0])
					retired = true
				}
			}
			if err := stream.Err(); err != nil {
				t.Fatalf("stream error: %v", err)
			}
			if total != tasks*perTask {
				t.Errorf("settled %d task executions, want %d — recalled tickets were lost", total, tasks*perTask)
			}
			if after > highWater {
				t.Errorf("%d executions settled on the retired connection after Retire; at most the %d outstanding ones may",
					after, highWater)
			}
			// A replica placed on the retired connection ran there, so every
			// group still spans perTask distinct connections.
			for id, on := range hosts {
				if len(on) != perTask {
					t.Errorf("task %d ran on %d distinct connections, want %d", id, len(on), perTask)
				}
			}
		})
	}
}

// TestRunSimFaultyMatchesClean is the fault-injection acceptance test: a
// single-participant population (pinning the task→participant pairing) run
// with drops and garbles aggressive enough to force reconnect-and-resume
// must produce byte-identical verdicts and reports to the clean run with the
// same seeds, and no task may be lost.
func TestRunSimFaultyMatchesClean(t *testing.T) {
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
		t.Fatalf("clean RunSim: %v", err)
	}

	faulty := base
	faulty.DropProb = 0.03
	faulty.GarbleProb = 0.12
	faulty.ReconnectLimit = 200
	faulty.FaultRecvTimeout = 250 * time.Millisecond
	report, err := RunSim(faulty)
	if err != nil {
		t.Fatalf("faulty RunSim: %v", err)
	}

	if report.Participants[0].Reconnects < 1 {
		t.Fatalf("no reconnect-and-resume was forced (reconnects = 0); the test proves nothing")
	}
	if report.TasksAssigned != base.Tasks {
		t.Errorf("faulty run completed %d tasks, want %d", report.TasksAssigned, base.Tasks)
	}
	// The supervisor's per-task rulings are the verdicts that must be
	// byte-identical; a participant's own accepted/rejected bookkeeping may
	// lag when a verdict-delivery frame is lost to a fault.
	if !reflect.DeepEqual(clean.TaskVerdicts, report.TaskVerdicts) {
		t.Errorf("verdicts diverge:\nclean:  %+v\nfaulty: %+v", clean.TaskVerdicts, report.TaskVerdicts)
	}
	if !reflect.DeepEqual(clean.Reports, report.Reports) {
		t.Errorf("report streams diverge: clean %d reports, faulty %d", len(clean.Reports), len(report.Reports))
	}
	if clean.HonestAccused != report.HonestAccused {
		t.Errorf("accusations diverge: clean %d, faulty %d", clean.HonestAccused, report.HonestAccused)
	}
}

// TestRunSimFaultyPopulation runs a mixed honest/cheating population over a
// lossy link: the stream must converge, no task may be silently dropped, and
// verdicts must match each executor's class (r=0 cheaters fabricate every
// value, so any sampled index convicts them — verdicts are deterministic per
// class regardless of which participant work stealing picked).
func TestRunSimFaultyPopulation(t *testing.T) {
	const tasks = 12
	report, err := RunSim(SimConfig{
		Spec:             SchemeSpec{Kind: SchemeCBS, M: 10},
		Workload:         "synthetic",
		Seed:             5,
		TaskSize:         96,
		Tasks:            tasks,
		Honest:           3,
		SemiHonest:       2,
		HonestyRatio:     0, // every claimed value is a guess: rejection certain
		PipelineWindow:   2,
		DropProb:         0.02,
		GarbleProb:       0.08,
		ReconnectLimit:   200,
		FaultRecvTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if report.TasksAssigned != tasks {
		t.Errorf("TasksAssigned = %d, want %d — tasks lost to faults", report.TasksAssigned, tasks)
	}
	if len(report.TaskVerdicts) != tasks {
		t.Errorf("recorded %d task verdicts, want %d", len(report.TaskVerdicts), tasks)
	}
	seen := make(map[uint64]bool)
	for _, tv := range report.TaskVerdicts {
		if seen[tv.TaskID] {
			t.Errorf("task %d ruled twice", tv.TaskID)
		}
		seen[tv.TaskID] = true
	}
	// Participant-side counters only reflect verdicts that were delivered
	// (a delivery frame can be lost to a fault), so the per-class check is
	// one-sided: no cheater may ever be accepted, no honest worker rejected.
	for _, p := range report.Participants {
		switch {
		case p.Cheater && p.Accepted > 0:
			t.Errorf("cheater %s had %d tasks accepted", p.ID, p.Accepted)
		case !p.Cheater && p.Rejected > 0:
			t.Errorf("honest participant %s rejected %d times", p.ID, p.Rejected)
		}
	}
	if report.HonestAccused != 0 {
		t.Errorf("%d honest participants accused", report.HonestAccused)
	}
}

// TestRunSimFaultyShortfallIsAnError drowns the link so thoroughly that the
// reconnect budget cannot save it: RunSim must fail loudly instead of
// returning a silently short report (a blacklist-emptied pool remains the
// only legitimate shortfall).
func TestRunSimFaultyShortfallIsAnError(t *testing.T) {
	_, err := RunSim(SimConfig{
		Spec:             SchemeSpec{Kind: SchemeCBS, M: 6},
		Workload:         "synthetic",
		Seed:             3,
		TaskSize:         64,
		Tasks:            3,
		Honest:           1,
		PipelineWindow:   2,
		DropProb:         0.9,
		ReconnectLimit:   1,
		FaultRecvTimeout: 100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("RunSim returned success although the link cannot complete the task list")
	}
	if !strings.Contains(err.Error(), "completed") {
		t.Errorf("error %q does not report the task shortfall", err)
	}
}

// TestRunSimRejectsBadFaultConfig covers fault-field validation.
func TestRunSimRejectsBadFaultConfig(t *testing.T) {
	base := SimConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 6}, Workload: "synthetic",
		TaskSize: 64, Tasks: 1, Honest: 1, PipelineWindow: 2,
	}
	for name, mutate := range map[string]func(*SimConfig){
		"drop out of range":   func(c *SimConfig) { c.DropProb = 1.5 },
		"garble negative":     func(c *SimConfig) { c.GarbleProb = -0.1 },
		"negative reconnects": func(c *SimConfig) { c.ReconnectLimit = -1 },
		"negative watchdog":   func(c *SimConfig) { c.FaultRecvTimeout = -time.Second },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := RunSim(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
}

// TestSessionWatchdogQuarantines pins the drop-detection path alone: a
// participant whose every send vanishes must trip the session receive
// watchdog, and the attempt must come back resumable (ErrConnQuarantined),
// not hang.
func TestSessionWatchdogQuarantines(t *testing.T) {
	r := newRedialableParticipant(t, HonestFactory)
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	// Drop every participant→supervisor frame.
	lossy := transport.WithFaults(partConn, transport.FaultPlan{DropProb: 0.999999, Seed: 1})
	ch := make(chan error, 1)
	go func() { ch <- r.p.Serve(lossy) }()

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 2})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(supConn, 1, WithSessionRecvTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	at, err := sup.NewAttempt(poolTasks(1, 64)[0])
	if err != nil {
		t.Fatalf("NewAttempt: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sess.RunAttempt(at)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnQuarantined) {
			t.Errorf("RunAttempt error = %v, want ErrConnQuarantined", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired; RunAttempt hung on the dropped frame")
	}
	_ = sess.Close()
	_ = supConn.Close()
	<-ch // the participant's serve loop exits on the closed connection
}

// verdictDropConn drops the first supervisor→participant frame carrying a
// verdict — a deterministic stand-in for a delivery frame lost to a fault.
type verdictDropConn struct {
	transport.Conn
	dropped atomic.Bool
}

func (c *verdictDropConn) Send(m transport.Message) error {
	if m.Type == msgBatch && !c.dropped.Load() {
		if msgs, err := decodeBatch(nil, m.Payload); err == nil {
			for _, tm := range msgs {
				if tm.Type == msgVerdict && c.dropped.CompareAndSwap(false, true) {
					return nil // the verdict vanishes on the wire
				}
			}
		}
	}
	return c.Conn.Send(m)
}

// TestDroppedVerdictIsRedelivered pins the verdict-acknowledgement fix: a
// verdict frame lost in transit leaves the supervisor without its ack, the
// receive watchdog quarantines the connection, and the resume handshake
// re-delivers the verdict — so the participant's Accepted counter
// converges instead of staying stale, and the re-delivery is counted
// exactly once.
func TestDroppedVerdictIsRedelivered(t *testing.T) {
	r := newRedialableParticipant(t, HonestFactory)
	defer r.shutdown()
	const tasks = 2

	first := &verdictDropConn{Conn: r.dial()}
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 8}, 2)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(),
		[]transport.Conn{first}, SliceTaskSource(poolTasks(tasks, 64)), 1,
		WithRedial(func(transport.Conn) (transport.Conn, error) { return r.dial(), nil }),
		WithStreamRecvTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	count := 0
	for so := range stream.Outcomes() {
		count++
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("honest task %d rejected: %s", so.Outcome.Task.ID, so.Outcome.Verdict.Reason)
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if count != tasks {
		t.Fatalf("completed %d tasks, want %d", count, tasks)
	}
	if !first.dropped.Load() {
		t.Fatal("no verdict was dropped; the test proves nothing")
	}
	if r.dials() < 2 {
		t.Fatal("dropped verdict never forced a reconnect")
	}
	totals := r.p.Totals()
	if totals.Tasks != tasks || totals.Accepted != tasks || totals.Rejected != 0 {
		t.Errorf("participant counters did not converge: tasks=%d accepted=%d rejected=%d, want %d/%d/0",
			totals.Tasks, totals.Accepted, totals.Rejected, tasks, tasks)
	}
}

// frameTypes returns the message types a batch frame carries, in order.
func frameTypes(m transport.Message) []uint8 {
	if m.Type != msgBatch {
		return nil
	}
	msgs, err := decodeBatch(nil, m.Payload)
	if err != nil {
		return nil
	}
	types := make([]uint8, len(msgs))
	for i, tm := range msgs {
		types[i] = tm.Type
	}
	return types
}

// ackDropConn is a supervisor's end of a connection on which the first
// participant frame carrying a verdict ack is lost.
type ackDropConn struct {
	transport.Conn
	dropped atomic.Bool
}

func (c *ackDropConn) Recv() (transport.Message, error) {
	for {
		m, err := c.Conn.Recv()
		if err != nil || c.dropped.Load() || !slices.Contains(frameTypes(m), msgVerdictAck) {
			return m, err
		}
		c.dropped.Store(true)
	}
}

// resumeDropConn is a supervisor's end of a connection on which the first
// frame carrying a msgResume is lost; held records what that frame carried.
type resumeDropConn struct {
	transport.Conn
	mu   sync.Mutex
	held []uint8
}

func (c *resumeDropConn) Send(m transport.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if types := frameTypes(m); c.held == nil && slices.Contains(types, msgResume) {
		c.held = types
		return nil // the frame vanishes on the wire
	}
	return c.Conn.Send(m)
}

func (c *resumeDropConn) dropped() []uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held
}

// TestResumeAndRedeliveredVerdictShareAFrame pins the fix for a verdict
// re-delivered without its task: the first connection loses the verdict
// ack, so the supervisor resumes the task on a second connection with
// msgResume and the unacknowledged msgVerdict and no participant reply
// between. Losing the frame that holds the resume must lose the verdict
// too — a participant session handed the verdict alone refuses it as a
// message for an unknown task and closes the connection. With coalescing
// off (soloFrames) the writer would put the two in separate frames unless
// they are one pair; the test drops exactly the resume's frame, and the
// task then completes on a third connection with every participant serve
// loop ending cleanly and the verdict counted once.
func TestResumeAndRedeliveredVerdictShareAFrame(t *testing.T) {
	soloFrames.Store(true) // no coalescing puts the two in one frame by chance
	t.Cleanup(func() { soloFrames.Store(false) })
	r := newRedialableParticipant(t, HonestFactory)
	defer r.shutdown()

	first := &ackDropConn{Conn: r.dial()}
	second := &resumeDropConn{}
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 8}, 1)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	redial := func(transport.Conn) (transport.Conn, error) {
		if r.dials() == 1 {
			second.Conn = r.dial()
			return second, nil
		}
		return r.dial(), nil
	}
	stream, err := pool.RunTaskSource(context.Background(),
		[]transport.Conn{first}, SliceTaskSource(poolTasks(1, 64)), 1,
		WithRedial(redial), WithStreamRecvTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	for so := range stream.Outcomes() {
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("honest task %d rejected: %s", so.Outcome.Task.ID, so.Outcome.Verdict.Reason)
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if !first.dropped.Load() {
		t.Fatal("no verdict ack was dropped; the test proves nothing")
	}
	if got, want := second.dropped(), []uint8{msgResume, msgVerdict}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dropped resume frame held types %v, want %v", got, want)
	}
	if r.dials() != 3 {
		t.Fatalf("task finished after %d connections, want 3", r.dials())
	}
	if totals := r.p.Totals(); totals.Tasks != 1 || totals.Accepted != 1 {
		t.Errorf("participant counted tasks=%d accepted=%d, want 1/1", totals.Tasks, totals.Accepted)
	}
}

// TestSessionSendCreditsOnlyWireFrames pins the flush-time crediting fix:
// frames a quarantined batch writer discards must not count toward the
// task's sent bytes. Every send on this connection fails, so nothing
// reaches the wire and the attempt must report zero sent bytes — crediting
// at enqueue time would have counted the assignment frame.
func TestSessionSendCreditsOnlyWireFrames(t *testing.T) {
	supConn, partConn := transport.Pipe()
	_ = partConn.Close() // every Send now fails with ErrClosed
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 1})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(supConn, 1)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	at, err := sup.NewAttempt(poolTasks(1, 64)[0])
	if err != nil {
		t.Fatalf("NewAttempt: %v", err)
	}
	if _, err := sess.RunAttempt(at); !errors.Is(err, ErrConnQuarantined) {
		t.Fatalf("RunAttempt error = %v, want ErrConnQuarantined", err)
	}
	if supConn.Stats().BytesSent() != 0 {
		t.Fatalf("connection counted %d sent bytes; the pipe should have refused everything", supConn.Stats().BytesSent())
	}
	if at.bytesSent != 0 {
		t.Errorf("attempt credited %d sent bytes for frames that never hit the wire", at.bytesSent)
	}
	ovSent, _ := sess.OverheadBytes()
	if ovSent != 0 {
		t.Errorf("session overhead credited %d sent bytes for discarded frames", ovSent)
	}
	_ = sess.Close()
	_ = supConn.Close()
}

// TestStreamFaultyByteAccountingExact is the run-level accounting pin for
// faulty sessions: across drops, garbles, quarantines, and redials, the
// pool's aggregated byte counters must equal the sum of every
// supervisor-side connection's frame counters exactly — nothing lost to a
// discarded frame, nothing double-counted by an enqueue that never flushed.
func TestStreamFaultyByteAccountingExact(t *testing.T) {
	const tasks = 6
	p, err := NewParticipant("p", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	var mu sync.Mutex
	var supConns []transport.Conn
	var serveErrs []chan error
	dial := func() transport.Conn {
		supConn, partConn := transport.Pipe(transport.WithBuffer(8))
		mu.Lock()
		attempt := len(supConns)
		mu.Unlock()
		sup := transport.WithFaults(supConn, transport.FaultPlan{DropProb: 0.02, GarbleProb: 0.1, Seed: int64(2*attempt + 1)})
		part := transport.WithFaults(partConn, transport.FaultPlan{DropProb: 0.02, GarbleProb: 0.1, Seed: int64(2*attempt + 2)})
		ch := make(chan error, 1)
		go func() { ch <- p.Serve(part) }()
		mu.Lock()
		supConns = append(supConns, sup)
		serveErrs = append(serveErrs, ch)
		mu.Unlock()
		return sup
	}
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 6}, Seed: 17}, 3)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(),
		[]transport.Conn{dial()}, SliceTaskSource(poolTasks(tasks, 64)), 3,
		WithRedial(func(transport.Conn) (transport.Conn, error) { return dial(), nil }),
		WithMaxReconnects(500),
		WithStreamRecvTimeout(250*time.Millisecond))
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	count := 0
	for range stream.Outcomes() {
		count++
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if count != tasks {
		t.Fatalf("completed %d tasks, want %d", count, tasks)
	}

	mu.Lock()
	if len(supConns) < 2 {
		mu.Unlock()
		t.Fatal("no quarantine happened; the faulty accounting path was never exercised")
	}
	var wireSent, wireRecv int64
	for _, c := range supConns {
		wireSent += c.Stats().BytesSent()
		wireRecv += c.Stats().BytesRecv()
		_ = c.Close()
	}
	errs := append([]chan error(nil), serveErrs...)
	mu.Unlock()
	for _, ch := range errs {
		if err := <-ch; err != nil {
			t.Errorf("participant serve: %v", err)
		}
	}

	if pool.BytesSent() != wireSent {
		t.Errorf("pool BytesSent = %d, wire total %d — send crediting drifted under faults", pool.BytesSent(), wireSent)
	}
	if pool.BytesRecv() != wireRecv {
		t.Errorf("pool BytesRecv = %d, wire total %d — receive attribution drifted under faults", pool.BytesRecv(), wireRecv)
	}
}

// TestDialogueGarbleSurfacesAsLinkFault pins the dialogue-mode integrity
// fix: with per-frame checksums at the transport framing layer, a garbled
// frame in a plain dialogue exchange surfaces as a transport-level
// integrity failure — link damage — rather than a decode error blamed on
// the peer.
func TestDialogueGarbleSurfacesAsLinkFault(t *testing.T) {
	p, err := NewParticipant("p", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	// Garble every participant→supervisor frame.
	lossy := transport.WithFaults(partConn, transport.FaultPlan{GarbleProb: 1, Seed: 9})
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(lossy) }()

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 2})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	_, err = runDialogue(sup, supConn, poolTasks(1, 64)[0])
	if !errors.Is(err, transport.ErrFrameCorrupt) {
		t.Errorf("RunTask error = %v, want transport.ErrFrameCorrupt", err)
	}
	if errors.Is(err, ErrBadPayload) || errors.Is(err, ErrUnexpectedMessage) {
		t.Errorf("garble misclassified as peer misbehavior: %v", err)
	}
	_ = supConn.Close()
	<-serveErr // the aborted exchange may legitimately error; just drain it
}

// TestParticipantRecountsReusedTaskIDs pins the counted-tombstone scoping:
// only a resume may suppress a verdict tally. A long-lived participant
// serving a second run that numbers its tasks from zero again must count
// the new tasks' verdicts, not mistake them for re-deliveries.
func TestParticipantRecountsReusedTaskIDs(t *testing.T) {
	r := newRedialableParticipant(t, HonestFactory)
	defer r.shutdown()
	for run := 0; run < 2; run++ {
		sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: int64(run)})
		if err != nil {
			t.Fatalf("NewSupervisor: %v", err)
		}
		outcome, err := runDialogue(sup, r.dial(), poolTasks(1, 64)[0]) // task ID 0 both runs
		if err != nil {
			t.Fatalf("run %d RunTask: %v", run, err)
		}
		if !outcome.Verdict.Accepted {
			t.Fatalf("run %d honest task rejected: %s", run, outcome.Verdict.Reason)
		}
	}
	totals := r.p.Totals()
	if totals.Tasks != 2 || totals.Accepted != 2 {
		t.Errorf("reused task ID tallied %d tasks / %d accepted, want 2/2 (stale tombstone suppressed the recount)",
			totals.Tasks, totals.Accepted)
	}
}

// TestParticipantSendsLastUploadWithReports pins the participant's side of
// frame pairing: the commitment, the (unchunked) result vector and the
// ringer hits are each followed by the reports with no supervisor message
// between, so each goes out in the reports' frame — a link that lost the
// first and delivered the reports would hand the supervisor a message its
// exchange is not at ("got type 5 in exchange phase 1").
func TestParticipantSendsLastUploadWithReports(t *testing.T) {
	soloFrames.Store(true) // no coalescing puts the two in one frame by chance
	t.Cleanup(func() { soloFrames.Store(false) })
	for _, tc := range []struct {
		kind SchemeKind
		last uint8
	}{
		{SchemeCBS, msgCommit},
		{SchemeNICBS, msgCommit},
		{SchemeNaive, msgResults},
		{SchemeRinger, msgRingerHits},
	} {
		conn, shutdown := sessionFixture(t, HonestFactory)
		task := Task{ID: 4, Start: 0, N: 64, Workload: "synthetic", Seed: 5}
		a := assignment{Task: task, Spec: SchemeSpec{Kind: tc.kind, M: 2, ChainIters: 1}}
		if tc.kind == SchemeRinger {
			a.RingerImages = [][]byte{{1}}
		}
		peer := &taggedPeer{t: t, conn: conn, id: task.ID}
		peer.send(msgAssign, encodeAssignment(a))
		frame, err := conn.Recv()
		if err != nil {
			t.Fatalf("%v: recv: %v", tc.kind, err)
		}
		if got, want := frameTypes(frame), []uint8{tc.last, msgReports}; !reflect.DeepEqual(got, want) {
			t.Errorf("%v: first frame carries types %v, want %v", tc.kind, got, want)
		}
		shutdown()
	}
}
