package grid

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uncheatgrid/internal/cheat"
	"uncheatgrid/internal/core"
	"uncheatgrid/internal/leakcheck"
	"uncheatgrid/internal/merkle"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// The tests in this file run with every kit — and every participant task
// slot and supervisor task connection — overwritten on its way back to a free
// list (scribbleKit, scribbleSlot): a reference that outlives the borrow — a
// digest, a challenge, a decoded proof, a queued message, an assignment —
// then reads 0xA5 garbage instead of the bytes it was left with, and changes
// a verdict, a convicted index or a replayed challenge, or trips the race
// detector; and a reuse that does not reset what it takes over starts from
// the garbage. What the overwrite cannot reach from this package (the tree's
// arena, slab and offsets, the root buffers, a scratch's headers) it rewrites
// through the packages' own entry points: a garbage task committed, proven
// and audited in the kit.

// scribbleRun is the garbage task's leaf run: five bytes of 0xA5 a leaf.
func scribbleRun(dst []byte, _ int, ends []int) []byte {
	for j := range ends {
		dst = append(dst, 0xA5, 0xA5, 0xA5, 0xA5, 0xA5)
		ends[j] = len(dst)
	}
	return dst
}

// scribbleProof is a valid encoded multiproof of garbage, larger than any
// proof these tests audit.
var scribbleProof = sync.OnceValue(func() []byte {
	tree := new(merkle.Tree)
	if err := tree.Rebuild(512, scribbleRun); err != nil {
		panic(err)
	}
	challenged := make([]uint64, 40)
	for i := range challenged {
		challenged[i] = uint64(i * 12)
	}
	mp, err := tree.ProveMulti(challenged)
	if err != nil {
		panic(err)
	}
	data, err := mp.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return data
})

func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// scribbleBytes is the garbage a scribbled slice or message carries.
var scribbleBytes = bytes.Repeat([]byte{0xA5}, 40)

// scribble overwrites a returned kit. It runs under the lock of the list the
// kit is going onto.
func scribble(commit *commitKit, audit *auditKit) {
	if commit != nil {
		n := max(commit.prover.N(), 64)
		if err := commit.prover.Reset(n, scribbleRun); err != nil {
			panic(err)
		}
		indices := make([]uint64, 40)
		for i := range indices {
			indices[i] = uint64(i*7) % uint64(n)
		}
		if err := commit.prover.RespondInto(&commit.resp, &commit.scratch, indices); err != nil {
			panic(err)
		}
		fill(commit.indices, 0xA5A5A5A5A5A5A5A5)
		return
	}
	garbage := core.Commitment{Root: bytes.Repeat([]byte{0xA5}, 32), N: 1 << 20}
	if err := audit.verifier.Reset(garbage, core.WithRand(rand.New(rand.NewSource(0xA5)))); err != nil {
		panic(err)
	}
	var mp merkle.MultiProof
	if err := mp.UnmarshalAliasedInto(&audit.scratch, scribbleProof()); err != nil {
		panic(err)
	}
	fill(audit.challenge, 0xA5A5A5A5A5A5A5A5)
	fill(audit.evalBuf, 0xA5)
	fill(audit.root, 0xA5)
	// The task connection: a foreign ID, queued garbage and counts, and no
	// session — a stale Send or Recv through it panics.
	c := &audit.conn
	c.sess, c.id = nil, 0xA5A5A5A5A5A5A5A5
	fill(c.inboxBuf[:], transport.Message{Type: msgProofs, Payload: scribbleBytes})
	c.inbox, c.head = c.inboxBuf[:3], 1
	c.sent.Store(0xA5A5)
	c.recv = 0xA5A5
}

// scribbleTaskSlot overwrites a participant task slot on its way back to its
// session's list (under the session's lock): a garbage assignment and resume
// handshake, an inbox that claims queued garbage, and an execution state
// with a foreign task, digest and reports.
func scribbleTaskSlot(slot *participantTask) {
	garbage := Task{ID: 0xA5A5A5A5, Start: 0xA5, N: 0xA5, Workload: "garbage", Seed: 0xA5}
	slot.a = assignment{Task: garbage, Spec: SchemeSpec{Kind: SchemeRinger, M: 0xA5}}
	slot.resume = resumeMsg{Assignment: slot.a, HaveCommit: true, HaveReports: true, Challenge: scribbleBytes}
	slot.res = &slot.resume
	fill(slot.inbox[:], transport.Message{Type: msgChallenge, Payload: scribbleBytes})
	slot.head, slot.queued = 3, 5
	slot.exec.task, slot.exec.digest = garbage, scribbleBytes
	slot.exec.reports = []Report{{X: 0xA5, S: "garbage"}}
}

// scribbleReturnedKits turns the hooks on for the rest of the test.
func scribbleReturnedKits(t *testing.T) {
	t.Helper()
	scribbleKit, scribbleSlot = scribble, scribbleTaskSlot
	t.Cleanup(func() { scribbleKit, scribbleSlot = nil, nil })
}

// sameOutcome reports whether two runs of one task ruled identically: the
// verdict, the convicted index, the reports and the evaluations spent.
func sameOutcome(a, b *TaskOutcome) bool {
	return a.Verdict == b.Verdict && a.CheatIndex == b.CheatIndex &&
		a.VerifyEvals == b.VerifyEvals && reflect.DeepEqual(a.Reports, b.Reports)
}

// kitSessionRun runs tasks through one window-8 session against a fresh
// cheater and returns the outcomes and how many kits each side ended with.
func kitSessionRun(t *testing.T, spec SchemeSpec, tasks []Task) ([]*TaskOutcome, int) {
	t.Helper()
	conn, shutdown := sessionFixture(t, SemiHonestFactory(0.5, 77))
	defer shutdown()
	sup, err := NewSupervisor(SupervisorConfig{Spec: spec, Seed: 21, CrossCheckReports: true})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(conn, 8)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	outcomes := runSessionTasks(t, sess, tasks)
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return outcomes, len(sess.kits)
}

// TestKitScribbledOnReturnChangesNoVerdict: 400 interleaved tasks of mixed
// sizes on a window-8 session against a half-honest worker rule exactly the
// same — verdict, reason, convicted index, reports — whether or not every kit
// is overwritten the moment it returns, for both CBS forms; and the session
// never holds more kits than its window.
func TestKitScribbledOnReturnChangesNoVerdict(t *testing.T) {
	tasks := make([]Task, 400)
	for i := range tasks {
		size := uint64(16 + 37*(i%7)) // 16..238: kits grow, shrink and pad
		tasks[i] = Task{ID: uint64(i), Start: uint64(i) * 256, N: size, Workload: "synthetic", Seed: 5}
	}
	for _, spec := range []SchemeSpec{{Kind: SchemeCBS, M: 6}, {Kind: SchemeNICBS, M: 6, ChainIters: 1}} {
		clean, _ := kitSessionRun(t, spec, tasks)
		scribbleReturnedKits(t)
		scribbled, kits := kitSessionRun(t, spec, tasks)
		scribbleKit = nil
		rejected := 0
		for i := range tasks {
			if !sameOutcome(clean[i], scribbled[i]) {
				t.Errorf("%v task %d: %+v with kits scribbled on return, %+v without", spec.Kind, i, scribbled[i], clean[i])
			}
			if !clean[i].Verdict.Accepted {
				rejected++
			}
		}
		if rejected == 0 || rejected == len(tasks) {
			t.Errorf("%v: %d of %d tasks rejected; the run distinguishes nothing", spec.Kind, rejected, len(tasks))
		}
		if kits < 1 || kits > 8 {
			t.Errorf("%v: session ended holding %d audit kits, want 1..8 (its window)", spec.Kind, kits)
		}
	}
}

// challengeCutConn forwards everything until the supervisor sends the
// interactive challenge of task target, then kills the link under it: the
// attempt is quarantined with its challenge issued and its proofs not in.
type challengeCutConn struct {
	transport.Conn
	target uint64
	cut    chan struct{}
}

func (c *challengeCutConn) Send(m transport.Message) error {
	if m.Type == msgBatch {
		msgs, err := decodeBatch(nil, bytes.Clone(m.Payload))
		if err != nil {
			return err
		}
		for _, tm := range msgs {
			if tm.TaskID == c.target && tm.Type == msgChallenge {
				close(c.cut)
				_ = c.Conn.Close()
				return transport.ErrClosed
			}
		}
	}
	return c.Conn.Send(m)
}

// TestKitTravelsWithQuarantinedAttempt: a task whose connection dies after
// its challenge was drawn keeps its audit kit — the challenge indices, the
// verifier and the eval buffer a resume needs live there — while other tasks
// finish on, and return scribbled kits to, both the dying session's list and
// the replacement's; resumed, it replays the same challenge bytes and reaches
// the verdict of an undisturbed run, and only then does its kit go back, to
// the session it finished on.
func TestKitTravelsWithQuarantinedAttempt(t *testing.T) {
	spec := SchemeSpec{Kind: SchemeCBS, M: 8}
	cfg := SupervisorConfig{Spec: spec, Seed: 33, CrossCheckReports: true}
	factory := SemiHonestFactory(0.5, 91)
	const target = 1000
	task := Task{ID: target, Start: 1 << 20, N: 200, Workload: "synthetic", Seed: 5}
	churn := func(base uint64) []Task {
		tasks := poolTasks(24, 96)
		for i := range tasks {
			tasks[i].ID += base
		}
		return tasks
	}

	// The undisturbed run.
	cleanConn, cleanShutdown := sessionFixture(t, factory)
	cleanSup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	cleanSess, err := cleanSup.OpenSession(cleanConn, 4)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	cleanAt, err := cleanSup.NewAttempt(task)
	if err != nil {
		t.Fatalf("NewAttempt: %v", err)
	}
	want, err := cleanSess.RunAttempt(cleanAt)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	wantChallenge := bytes.Clone(cleanAt.pt.st.challengePayload)
	_ = cleanSess.Close()
	cleanShutdown()

	scribbleReturnedKits(t)
	r := newRedialableParticipant(t, factory)
	defer r.shutdown()
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	link := &challengeCutConn{Conn: r.dial(), target: target, cut: make(chan struct{})}
	old, err := sup.OpenSession(link, 4)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	// Used kits on the old session's list before the target borrows one.
	runSessionTasks(t, old, churn(0))
	at, err := sup.NewAttempt(task)
	if err != nil {
		t.Fatalf("NewAttempt: %v", err)
	}
	// Neighbours in flight when the link dies: resumable or finished, never
	// failed for another reason.
	var wg sync.WaitGroup
	for _, neighbour := range churn(100)[:3] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := old.RunTask(neighbour); err != nil && !errors.Is(err, ErrConnQuarantined) {
				t.Errorf("neighbour %d on the dying session: %v", neighbour.ID, err)
			}
		}()
	}
	_, err = old.RunAttempt(at)
	wg.Wait()
	if !errors.Is(err, ErrConnQuarantined) {
		t.Fatalf("RunAttempt on the cut link: err = %v, want ErrConnQuarantined", err)
	}
	select {
	case <-link.cut:
	default:
		t.Fatal("the link died before the challenge was sent")
	}
	kit := at.pt.kit
	if kit == nil {
		t.Fatal("quarantine returned the attempt's audit kit")
	}
	old.mu.Lock()
	onOldList := slices.Contains(old.kits, kit)
	old.mu.Unlock()
	if onOldList {
		t.Fatal("a quarantined attempt's kit is on its dead session's free list")
	}
	old.abandon()
	issued := bytes.Clone(at.pt.st.challengePayload)
	if !bytes.Equal(issued, wantChallenge) {
		t.Fatalf("challenge issued before the cut %x, the clean run's %x", issued, wantChallenge)
	}

	// The replacement session churns its own list before and while the
	// attempt resumes.
	fresh, err := sup.OpenSession(r.dial(), 4)
	if err != nil {
		t.Fatalf("OpenSession 2: %v", err)
	}
	runSessionTasks(t, fresh, churn(200))
	var drawn core.Challenge
	if err := drawn.UnmarshalBinary(issued); err != nil {
		t.Fatalf("decode issued challenge: %v", err)
	}
	if !slices.Equal(at.pt.st.challenge.Indices, drawn.Indices) {
		t.Fatalf("challenge indices held across the quarantine %v, issued %v", at.pt.st.challenge.Indices, drawn.Indices)
	}
	var got *TaskOutcome
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, err = fresh.RunAttempt(at)
	}()
	runSessionTasks(t, fresh, churn(300))
	wg.Wait()
	if err != nil {
		t.Fatalf("resumed RunAttempt: %v", err)
	}
	if !sameOutcome(got, want) {
		t.Errorf("resumed task ruled %+v, the clean run %+v", got, want)
	}
	if !bytes.Equal(at.pt.st.challengePayload, wantChallenge) {
		t.Errorf("resume replayed challenge %x, issued %x", at.pt.st.challengePayload, wantChallenge)
	}
	fresh.mu.Lock()
	onFreshList := slices.Contains(fresh.kits, kit)
	fresh.mu.Unlock()
	if at.pt.kit != nil || !onFreshList {
		t.Error("the settled attempt's kit did not return to the session it finished on")
	}
	if at.pt.st.verifier != nil || at.pt.st.challenge.Indices != nil || at.pt.st.proofs.Proof.Indices != nil || at.pt.tr.buf != nil {
		t.Error("a settled attempt still points into the kit it returned")
	}
	if err := fresh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestKitReturnsOnTerminalErrorOnly sets a protocol violation beside a dead
// link: the first ends the attempt, so its kit goes back to the session's
// list with every alias cut; the second leaves the attempt resumable, so the
// kit stays with it and the list stays empty.
func TestKitReturnsOnTerminalErrorOnly(t *testing.T) {
	scribbleReturnedKits(t)
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 2})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	task := poolTasks(1, 64)[0]
	for _, tc := range []struct {
		name string
		// peer plays the participant after the commitment and reports are in.
		peer     func(p *taggedPeer)
		terminal bool
	}{
		{"protocol violation", func(p *taggedPeer) { p.send(msgRingerHits, []byte{0}) }, true},
		{"dead link", func(p *taggedPeer) { _ = p.conn.Close() }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			supConn, partConn := transport.Pipe(transport.WithBuffer(8))
			defer supConn.Close()
			sess, err := sup.OpenSession(supConn, 1)
			if err != nil {
				t.Fatalf("OpenSession: %v", err)
			}
			at, err := sup.NewAttempt(task)
			if err != nil {
				t.Fatalf("NewAttempt: %v", err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := sess.RunAttempt(at)
				done <- err
			}()
			peer := &taggedPeer{t: t, conn: partConn, id: task.ID}
			peer.expect(msgAssign)
			honest, err := core.NewProver(int(task.N), func(i uint64) []byte { return []byte{byte(i)} })
			if err != nil {
				t.Fatalf("NewProver: %v", err)
			}
			commit, err := honest.Commitment().MarshalBinary()
			if err != nil {
				t.Fatalf("marshal commitment: %v", err)
			}
			peer.send(msgCommit, commit)
			peer.send(msgReports, encodeReports(nil))
			peer.expect(msgChallenge) // the kit now holds the verifier and the drawn indices
			tc.peer(peer)
			err = <-done
			if tc.terminal {
				if err == nil || errors.Is(err, ErrConnQuarantined) {
					t.Fatalf("RunAttempt: err = %v, want a terminal protocol error", err)
				}
				if at.pt.kit != nil || len(sess.kits) != 1 {
					t.Errorf("after a terminal error: kit %p held, %d listed; want it returned", at.pt.kit, len(sess.kits))
				}
				if at.pt.st.verifier != nil || at.pt.st.challenge.Indices != nil || at.pt.tr.buf != nil {
					t.Error("a failed attempt still points into the kit it returned")
				}
			} else {
				if !errors.Is(err, ErrConnQuarantined) {
					t.Fatalf("RunAttempt: err = %v, want ErrConnQuarantined", err)
				}
				if at.pt.kit == nil || len(sess.kits) != 0 {
					t.Errorf("after a quarantine: kit %p held, %d listed; want it kept by the attempt", at.pt.kit, len(sess.kits))
				}
				if at.pt.st.verifier != &at.pt.kit.verifier || len(at.pt.st.challenge.Indices) != 4 {
					t.Error("a quarantined attempt lost the verifier or the challenge it must resume with")
				}
			}
			sess.abandon()
			_ = partConn.Close()
		})
	}
}

// TestKitParticipantLendsOnePerTaskInFlight: a participant session makes a
// commitment kit only when a task starts and its list is empty, and every
// task hands its kit back, so a connection that served 120 tasks under a
// window of 8 made at most 8 kits and saw 120 returns.
func TestKitParticipantLendsOnePerTaskInFlight(t *testing.T) {
	var mu sync.Mutex
	returns, kits := 0, make(map[*commitKit]struct{})
	scribbleKit = func(commit *commitKit, audit *auditKit) {
		scribble(commit, audit)
		if commit != nil {
			mu.Lock()
			returns++
			kits[commit] = struct{}{}
			mu.Unlock()
		}
	}
	t.Cleanup(func() { scribbleKit = nil })
	outcomes, _ := kitSessionRun(t, SchemeSpec{Kind: SchemeCBS, M: 4}, poolTasks(120, 64))
	mu.Lock()
	defer mu.Unlock()
	if returns != len(outcomes) {
		t.Errorf("%d commitment kits returned for %d tasks, want one return per task", returns, len(outcomes))
	}
	if len(kits) < 1 || len(kits) > 8 {
		t.Errorf("the connection made %d commitment kits under a window of 8", len(kits))
	}
}

// proofTap records, per task ID, the response (msgProofs) a participant sent
// over a supervisor's link: it decodes every incoming batch frame before the
// session does.
type proofTap struct {
	transport.Conn
	mu   sync.Mutex
	seen map[uint64][]byte
}

func newProofTap(conn transport.Conn) *proofTap {
	return &proofTap{Conn: conn, seen: make(map[uint64][]byte)}
}

func (c *proofTap) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil || m.Type != msgBatch {
		return m, err
	}
	msgs, derr := decodeBatch(nil, m.Payload) // the carve is the tap's own copy
	if derr != nil {
		return m, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tm := range msgs {
		if tm.Type == msgProofs {
			c.seen[tm.TaskID] = tm.Payload
		}
	}
	return m, err
}

// challengeKillConn forwards everything until the supervisor sends its first
// interactive challenge, then kills the link under every task in flight.
type challengeKillConn struct{ transport.Conn }

func (c *challengeKillConn) Send(m transport.Message) error {
	if m.Type == msgBatch {
		msgs, err := decodeBatch(nil, bytes.Clone(m.Payload))
		if err != nil {
			return err
		}
		for _, tm := range msgs {
			if tm.Type == msgChallenge {
				_ = c.Conn.Close()
				return transport.ErrClosed
			}
		}
	}
	return c.Conn.Send(m)
}

// TestKitSlotReuseKeepsProofsAndVerdicts: a task answers its challenge with
// the same response bytes, and is ruled the same, whether it runs in a fresh
// participant slot on a fresh session, in a slot, kit and task connection a
// window-8 session reuses, or resumed mid-protocol into a reused slot after
// its first link died — with every slot, kit and task connection scribbled
// as it returns.
func TestKitSlotReuseKeepsProofsAndVerdicts(t *testing.T) {
	spec := SchemeSpec{Kind: SchemeCBS, M: 6}
	cfg := SupervisorConfig{Spec: spec, Seed: 23, CrossCheckReports: true}
	factory := SemiHonestFactory(0.9, 77)
	targets := make([]Task, 8)
	for i := range targets {
		targets[i] = Task{ID: 1000 + uint64(i), Start: uint64(i) << 12, N: uint64(40 + 53*i), Workload: "synthetic", Seed: 5}
	}
	churn := func(base uint64) []Task {
		tasks := poolTasks(32, 96)
		for i := range tasks {
			tasks[i].ID += base
		}
		return tasks
	}
	newSup := func() *Supervisor {
		sup, err := NewSupervisor(cfg)
		if err != nil {
			t.Fatalf("NewSupervisor: %v", err)
		}
		return sup
	}

	// Fresh: one participant session, and one slot, per task.
	fresh := make([]*TaskOutcome, len(targets))
	freshProofs := make(map[uint64][]byte)
	for i, task := range targets {
		conn, shutdown := sessionFixture(t, factory)
		tap := newProofTap(conn)
		sess, err := newSup().OpenSession(tap, 1)
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		if fresh[i], err = sess.RunTask(task); err != nil {
			t.Fatalf("fresh task %d: %v", task.ID, err)
		}
		_ = sess.Close()
		shutdown()
		freshProofs[task.ID] = tap.seen[task.ID]
	}

	scribbleReturnedKits(t)

	// Reused: the targets follow churn on one window-8 session.
	conn, shutdown := sessionFixture(t, factory)
	reusedTap := newProofTap(conn)
	sess, err := newSup().OpenSession(reusedTap, 8)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	runSessionTasks(t, sess, churn(0))
	reused := runSessionTasks(t, sess, targets)
	_ = sess.Close()
	shutdown()

	// Resumed: the targets start on a link that dies at the first challenge
	// and resume, beside churn, on a session whose slots and kits are used.
	r := newRedialableParticipant(t, factory)
	defer r.shutdown()
	sup := newSup()
	resumedTap := newProofTap(r.dial())
	live, err := sup.OpenSession(resumedTap, 8)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	runSessionTasks(t, live, churn(0))
	dying, err := sup.OpenSession(&challengeKillConn{Conn: r.dial()}, 8)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	attempts := make([]*taskAttempt, len(targets))
	var wg sync.WaitGroup
	for i, task := range targets {
		if attempts[i], err = sup.NewAttempt(task); err != nil {
			t.Fatalf("NewAttempt: %v", err)
		}
		wg.Add(1)
		go func(at *taskAttempt) {
			defer wg.Done()
			if _, err := dying.RunAttempt(at); !errors.Is(err, ErrConnQuarantined) {
				t.Errorf("task %d on the dying link: err = %v, want ErrConnQuarantined", at.task.ID, err)
			}
		}(attempts[i])
	}
	wg.Wait()
	dying.abandon()
	challenged := 0
	for _, at := range attempts {
		if at.pt.st.challengePayload != nil {
			challenged++
		}
	}
	if challenged == 0 {
		t.Fatal("no target had its challenge drawn when the link died; nothing resumes mid-protocol")
	}
	resumed := make([]*TaskOutcome, len(targets))
	for i, at := range attempts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if resumed[i], err = live.RunAttempt(at); err != nil {
				t.Errorf("resumed task %d: %v", at.task.ID, err)
			}
		}()
	}
	runSessionTasks(t, live, churn(100))
	wg.Wait()
	if err := live.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}

	rejected := 0
	for i, task := range targets {
		want := freshProofs[task.ID]
		if len(want) == 0 {
			t.Fatalf("task %d: no response recorded on its fresh run", task.ID)
		}
		if got := reusedTap.seen[task.ID]; !bytes.Equal(got, want) {
			t.Errorf("task %d: response in a reused slot differs from a fresh slot's", task.ID)
		}
		if got := resumedTap.seen[task.ID]; !bytes.Equal(got, want) {
			t.Errorf("task %d: resumed response differs from a fresh slot's", task.ID)
		}
		if !sameOutcome(reused[i], fresh[i]) || !sameOutcome(resumed[i], fresh[i]) {
			t.Errorf("task %d ruled %+v fresh, %+v reused, %+v resumed", task.ID, fresh[i], reused[i], resumed[i])
		}
		if !fresh[i].Verdict.Accepted {
			rejected++
		}
	}
	if rejected == 0 || rejected == len(targets) {
		t.Errorf("%d of %d targets rejected; the run distinguishes nothing", rejected, len(targets))
	}
}

// TestParticipantReusesTaskSlots: a participant session runs its tasks in
// slots it keeps, each with one executor goroutine, and lists a slot before
// the verdict ack frees the supervisor's window slot. So once a warm-up has
// had the whole window in flight at once, 200 more tasks over a window-8
// session start no goroutine and make no slot, the session never holds more
// slots than its window, and Serve returns only once every executor has
// exited.
func TestParticipantReusesTaskSlots(t *testing.T) {
	const window = 8
	// Goroutines earlier tests are still tearing down must not be counted.
	if err := leakcheck.Check(5 * time.Second); err != nil {
		t.Fatalf("before the test: %v", err)
	}
	var mu sync.Mutex
	returns := make(map[*participantTask]int)
	scribbleSlot = func(slot *participantTask) {
		scribbleTaskSlot(slot)
		mu.Lock()
		returns[slot]++
		mu.Unlock()
	}
	t.Cleanup(func() { scribbleSlot = nil })
	slotsSeen := func() map[*participantTask]bool {
		mu.Lock()
		defer mu.Unlock()
		seen := make(map[*participantTask]bool, len(returns))
		for slot := range returns {
			seen[slot] = true
		}
		return seen
	}

	// The first window tasks hold each other up until all of them run, so the
	// warm-up makes every slot the session can need.
	var arrivals atomic.Int32
	full := make(chan struct{})
	cheater := SemiHonestFactory(0.5, 77)
	factory := func(f workload.Function) (cheat.Producer, error) {
		if n := arrivals.Add(1); n <= window {
			if n == window {
				close(full)
			}
			<-full
		}
		return cheater(f)
	}
	p, err := NewParticipant("p", factory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	served := make(chan error, 1)
	go func() { served <- p.Serve(partConn) }()
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 9})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(supConn, window)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}

	// window drivers, started before anything is counted, keep the window
	// full; results is buffered so they never wait on the test.
	tasks := poolTasks(400, 64)
	feed := make(chan Task)
	results := make(chan error, len(tasks))
	var drivers sync.WaitGroup
	for range window {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			for task := range feed {
				_, err := sess.RunTask(task)
				results <- err
			}
		}()
	}
	run := func(batch []Task) {
		for _, task := range batch {
			feed <- task
		}
		for range batch {
			if err := <-results; err != nil {
				t.Fatalf("task: %v", err)
			}
		}
	}

	run(tasks[:200])
	warm, before := slotsSeen(), runtime.NumGoroutine()
	if len(warm) != window {
		t.Fatalf("the warm-up made %d task slots with %d tasks in flight at once", len(warm), window)
	}
	run(tasks[200:])
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("200 tasks on a warm session: %d goroutines before, %d after", before, after)
	}
	measured := slotsSeen()
	for slot := range measured {
		if !warm[slot] {
			t.Error("a warm session made a task slot")
			break
		}
	}
	if len(measured) < 1 || len(measured) > window {
		t.Errorf("the session made %d task slots under a window of %d", len(measured), window)
	}

	close(feed)
	drivers.Wait()
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_ = supConn.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*participantTask).serve") {
		t.Fatal("Serve returned with a task slot's executor still running")
	}
	if err := leakcheck.Check(5 * time.Second); err != nil {
		t.Fatalf("after Serve: %v", err)
	}
}
