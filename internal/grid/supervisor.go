package grid

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"uncheatgrid/internal/baseline"
	"uncheatgrid/internal/core"
	"uncheatgrid/internal/merkle"
	"uncheatgrid/internal/shortsha"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// SupervisorConfig configures a supervisor.
type SupervisorConfig struct {
	// Spec selects and parameterizes the verification scheme.
	Spec SchemeSpec
	// Seed drives challenge and ringer randomness. Each task draws from a
	// private generator seeded by hash(Seed, task ID), so runs with equal
	// seeds and inputs are reproducible regardless of how tasks are
	// scheduled across goroutines.
	Seed int64
	// CrossCheckReports enables the screener cross-check on sampled
	// indices, which catches malicious (report-corrupting) participants in
	// the schemes that audit samples.
	CrossCheckReports bool
}

// Supervisor organizes the computation (Section 2.1): it assigns tasks,
// collects screened results, and verifies participants with the configured
// scheme. Tasks run over sessions (OpenSession), usually many at once
// through SupervisorPool.RunTaskSource; a Supervisor is safe for concurrent
// use.
type Supervisor struct {
	cfg SupervisorConfig
	// work is the workload instance every task of the supervisor shares.
	work workloadCache

	// evals counts supervisor-side evaluations of f spent on verification,
	// aggregated across all (possibly concurrent) tasks.
	evals atomic.Int64
}

// NewSupervisor validates the configuration and creates a supervisor.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if err := cfg.Spec.validate(); err != nil {
		return nil, err
	}
	return &Supervisor{cfg: cfg}, nil
}

// VerifyEvals reports how many f evaluations the supervisor has spent
// verifying results since construction.
func (s *Supervisor) VerifyEvals() int64 { return s.evals.Load() }

// taskSeed mixes the supervisor seed with the task ID through SHA-256 so
// every task gets an independent, scheduling-order-free randomness stream.
func taskSeed(seed int64, taskID uint64) int64 {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], taskID)
	sum := shortsha.Sum256(buf[:])
	return int64(binary.LittleEndian.Uint64(sum[:8]))
}

// taskRun carries the mutable state of one task execution — its randomness
// stream, verification-eval counter and evaluation scratch — so concurrent
// tasks never contend on supervisor fields. rng is held by value and reads
// from src, so a taskRun is set up in place (init) and never copied.
type taskRun struct {
	sup   *Supervisor
	rng   rand.Rand
	src   taskSource
	evals int64
	// buf receives every f(x) the supervisor recomputes for this task; see
	// eval.
	buf []byte
}

// eval recomputes f(x) for the task, charging its verification budget. The
// result lives in the task's one scratch buffer and is only valid until the
// next eval: callers compare or screen it, and copy what they keep.
//
//gridlint:credit the one place a task's verification evaluations are counted
func (tr *taskRun) eval(f workload.Function, x uint64) []byte {
	tr.evals++
	tr.buf = f.AppendEval(tr.buf[:0], x)
	return tr.buf
}

// init starts the task's randomness stream at its seed.
func (tr *taskRun) init(s *Supervisor, task Task) {
	tr.sup = s
	tr.src.state = uint64(taskSeed(s.cfg.Seed, task.ID))
	tr.rng = *rand.New(&tr.src)
}

// taskSource is the generator under a task's randomness stream: splitmix64
// (Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
// OOPSLA 2014) started at the task seed. A task draws a handful of values —
// m sample indices, or the ringer positions — so what matters is that a
// stream costs nothing to start: math/rand's default source fills a
// 607-word table per seed, which was more than the draws it then served.
// splitmix64 is one word of state, equidistributed over its 2^64 period,
// and passes BigCrush; taskSeed's SHA-256 already decorrelates the
// starting points of different tasks.
type taskSource struct{ state uint64 }

var _ rand.Source64 = (*taskSource)(nil)

// Uint64 implements rand.Source64.
func (s *taskSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *taskSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *taskSource) Seed(seed int64) { s.state = uint64(seed) }

// TaskOutcome summarizes one verified task execution.
type TaskOutcome struct {
	// Task is the assignment.
	Task Task
	// Verdict is the ruling sent to the participant — except on a
	// double-check replica, whose participant is sent a receipt and whose
	// Verdict is the group comparison's ruling on it.
	Verdict Verdict
	// Reports are the screened results received.
	Reports []Report
	// BytesSent and BytesRecv are the supervisor-side traffic for this
	// task, frame headers included.
	BytesSent, BytesRecv int64
	// VerifyEvals counts supervisor-side f evaluations for this task.
	VerifyEvals int64
	// CheatIndex is the convicting sample when Verdict rejects due to a
	// detected cheat; -1 otherwise.
	CheatIndex int64
	// Replica is this execution's position in its double-check group; 0 for
	// unreplicated schemes. Replicated runs emit one outcome per replica
	// (same task ID); (Task.ID, Replica) orders them.
	Replica int
}

// sharedWorkload is one workload instance together with what both ends
// derive from it: its screener and, when it has one, its cheap output
// verifier. A workload.Function is deterministic and safe for concurrent use
// by contract, and every screener is a pure function of its input, so the
// tasks of a participant session, or of a supervisor, share one.
type sharedWorkload struct {
	name     string
	seed     uint64
	f        workload.Function
	screener workload.Screener
	cheap    workload.OutputVerifier
}

// workloadCache hands out the sharedWorkload of a (name, seed). It keeps the
// one asked for last: the tasks of a stream share theirs, so a lookup is an
// atomic load and two compares, while tasks that alternate between workloads
// build one per switch and the cache stays one entry however many seeds it
// sees. Safe for concurrent use.
type workloadCache struct {
	last atomic.Pointer[sharedWorkload]
}

// get returns the shared instance of workload name at seed; a nil cache
// builds one that nothing else shares.
func (c *workloadCache) get(name string, seed uint64) (*sharedWorkload, error) {
	if c != nil {
		if w := c.last.Load(); w != nil && w.seed == seed && w.name == name {
			return w, nil
		}
	}
	f, err := workload.New(name, seed)
	if err != nil {
		return nil, err
	}
	w := &sharedWorkload{name: name, seed: seed, f: f, screener: f.Screener()}
	w.cheap, _ = workload.AsOutputVerifier(f)
	if c != nil {
		c.last.Store(w)
	}
	return w, nil
}

// protoConn is the one-task view of a connection: ordered Send/Recv of a
// single task's protocol messages. A session hands each in-flight task a
// virtual protoConn multiplexed over the one shared transport.Conn; the
// per-phase supervisor and participant state machines are written against
// this interface.
type protoConn interface {
	Send(m transport.Message) error
	// SendPair sends a and then b in one frame, so a lossy link delivers
	// both or neither. Either end pairs the messages it sends with no reply
	// from the peer between them, where losing the first frame and
	// delivering the second would hand the peer a message its side of the
	// exchange is not at.
	SendPair(a, b transport.Message) error
	Recv() (transport.Message, error)
}

// preparedTask is the output of the assignment phase: everything the
// supervisor needs to drive one task's verification, independent of the
// connection (real or session-virtual) the exchange will run on. Its st
// field is the task's resumable wire-phase state machine (see exchange.go):
// the exchange can detach from a dead connection and re-attach elsewhere.
// The task's run state and state machine are fields, not objects of their
// own; only the outcome, which the caller keeps after the task is gone, is
// allocated apart.
type preparedTask struct {
	assign assignment
	// work is the task's workload: f, its screener and, when it has one, its
	// cheap output verifier (checkOutput) — the supervisor's shared instance.
	work    *sharedWorkload
	tr      taskRun
	ringers *baseline.RingerSet
	outcome *TaskOutcome
	st      exchangeState
	// kit is the audit kit the attempt borrowed from the first session it
	// ran on, nil before that and after it went back (auditKit has the rule).
	kit *auditKit

	// ledger, when the task rides a window-settling stream, receives the
	// task's stream digest at decision time.
	ledger *WindowLedger
}

// auditKit is everything an audit needs whose shape does not change from one
// task to the next: the task's end of the session (its tagged sends and
// inbox), the verifier (root buffer, proof verifier, hash state, climb
// scratch), the storage the commitment is decoded into, the scratch the
// response's multiproof is decoded into, the storage the interactive
// challenge is drawn into and the buffer the supervisor's recomputations of f
// land in. A session lends one to each attempt it runs and resets it in place
// for the next.
//
// Ownership, the way transport/pool.go states it for frames. Borrow:
// Session.register, under the sess.mu it takes to register the task, pops a
// kit off Session.kits (or makes one) for an attempt that has none, and
// (re)opens the kit's task connection on that session. Aliases:
// exchangeState.verifier, .commitment.Root, .challenge.Indices (interactive
// CBS) and .proofs point into the kit, and taskRun.buf is its eval buffer —
// all of them state a resumed exchange must find intact. So the kit travels with the attempt:
// an exchange that ends in ErrConnQuarantined keeps it, across sessions and
// connections, and a quarantined attempt that is later abandoned takes its
// kit to the collector with it. Return:
// Session.detach, the one return point, once the exchange reached its
// outcome or failed for good, to the list of the session it ran on last —
// after preparedTask.returnKit cut every alias above. Nothing a caller keeps
// (the TaskOutcome, its reports and verdict) points into a kit. A list
// therefore never holds more kits than the connection had attempts attached
// at once, and it dies with the session.
type auditKit struct {
	conn      sessionTaskConn
	verifier  core.Verifier
	root      []byte
	scratch   merkle.ProofScratch
	challenge []uint64
	evalBuf   []byte
}

// returnKit cuts every reference the attempt holds into its audit kit, which
// takes back the eval buffer at whatever size the task grew it to. The caller
// puts the kit on a session's list.
func (pt *preparedTask) returnKit() {
	pt.kit.evalBuf = pt.tr.buf[:0]
	pt.kit, pt.tr.buf = nil, nil
	pt.st.verifier, pt.st.challenge, pt.st.proofs = nil, core.Challenge{}, core.Response{}
	pt.st.commitment.Root = nil
}

// prepareTask runs the assignment phase into pt: validate the task, look up
// the workload and start the task's private randomness stream, and (ringer
// scheme) plant the secrets. No traffic is generated; ringer evaluations are
// charged to the task's verification budget.
func (s *Supervisor) prepareTask(pt *preparedTask, task Task) error {
	if err := task.validate(); err != nil {
		return err
	}
	w, err := s.work.get(task.Workload, task.Seed)
	if err != nil {
		return err
	}
	pt.assign = assignment{Task: task, Spec: s.cfg.Spec}
	pt.work = w
	pt.tr.init(s, task)
	pt.outcome = &TaskOutcome{Task: task, CheatIndex: -1}
	pt.st.phase = initialPhase(s.cfg.Spec.Kind)
	if s.cfg.Spec.Kind == SchemeRinger {
		// Secrets are domain-relative; f is evaluated at absolute inputs.
		pt.ringers, err = baseline.PlantRingers(
			func(x uint64) []byte { return pt.tr.eval(w.f, task.Start+x) },
			task.N, s.cfg.Spec.M, &pt.tr.rng)
		if err != nil {
			return err
		}
		pt.assign.RingerImages = pt.ringers.Images
	}
	return nil
}

// taskAttempt is the supervisor's detachable handle on one in-flight task:
// the prepared state machine plus byte totals accumulated across every
// connection that carried it. An attempt is created once per task, survives
// connection quarantine, and re-attaches to a replacement session through
// Session.RunAttempt. Retransmitted announcements are counted, so faulty
// runs report what actually crossed the wire.
type taskAttempt struct {
	task                 Task
	pt                   preparedTask
	bytesSent, bytesRecv int64
	settled              bool
}

// NewAttempt validates and prepares a task for execution without touching
// any connection.
func (s *Supervisor) NewAttempt(task Task) (*taskAttempt, error) {
	at := &taskAttempt{task: task}
	if err := s.prepareTask(&at.pt, task); err != nil {
		return nil, err
	}
	return at, nil
}

// started reports whether participant state binds this attempt to its
// current peer. An attempt that has received nothing can attach to any
// participant (its randomness so far is derived purely from the task seed);
// one mid-protocol must resume where its commitment lives.
func (at *taskAttempt) started() bool { return at.pt.st.received }

// settle closes the attempt's verification-eval accounting exactly once,
// however many connections (or restarts) the task consumed.
func (at *taskAttempt) settle(s *Supervisor) {
	if at.settled {
		return
	}
	at.settled = true
	s.settle(&at.pt)
}

// settle closes the task's verification-eval accounting into its outcome
// and the supervisor totals. Called exactly once per prepared task.
//
//gridlint:credit the single settle point for a task's verification evals
func (s *Supervisor) settle(pt *preparedTask) {
	pt.outcome.VerifyEvals = pt.tr.evals
	s.evals.Add(pt.tr.evals)
}

// verdictMsg is the message that delivers a decided task's verdict.
func verdictMsg(outcome *TaskOutcome) transport.Message {
	return transport.Message{Type: msgVerdict, Payload: encodeVerdict(outcome.Verdict)}
}

// checkOutput is the Step 4 output check (a core.CheckFunc): f's cheap
// verifier when the workload has one, otherwise recomputation, compared as
// core.RecomputeCheck compares. Evaluations are charged to the task's
// verification budget.
func (pt *preparedTask) checkOutput(index uint64, output []byte) error {
	x := pt.assign.Task.Start + index
	if cheap := pt.work.cheap; cheap != nil {
		if !cheap.VerifyOutput(x, output) {
			return core.ErrWrongOutput
		}
		return nil
	}
	want := pt.tr.eval(pt.work.f, x)
	if len(want) != len(output) {
		return fmt.Errorf("%w: length %d, want %d", core.ErrWrongOutput, len(output), len(want))
	}
	if !bytes.Equal(want, output) {
		return core.ErrWrongOutput
	}
	return nil
}

// crossCheckReports recomputes the screener on the sampled inputs and
// confirms the participant's report list agrees — the sampled-index defense
// against the malicious model of Section 2.2. The report list is untrusted:
// it may be long, unordered and repeat an input (the later report wins), so
// the lookup is built over the m sampled inputs, not the list.
func (tr *taskRun) crossCheckReports(task Task, w *sharedWorkload, indices []uint64, reports []Report) string {
	sampled := make([]uint64, len(indices))
	for k, idx := range indices {
		sampled[k] = task.Start + idx
	}
	slices.Sort(sampled)
	// reported[k] is the last report naming sampled[k], nil when none does.
	// A repeated sample is looked up where BinarySearch lands: its first
	// copy, for the scan below and for the check after it.
	reported := make([]*Report, len(sampled))
	for r := range reports {
		if k, ok := slices.BinarySearch(sampled, reports[r].X); ok {
			reported[k] = &reports[r]
		}
	}
	for _, idx := range indices {
		x := task.Start + idx
		wantS, interesting := w.screener.Screen(x, tr.eval(w.f, x))
		k, _ := slices.BinarySearch(sampled, x)
		got := reported[k]
		if interesting && (got == nil || got.S != wantS) {
			return fmt.Sprintf("screener report missing or wrong for sampled input %d", x)
		}
		if !interesting && got != nil {
			return fmt.Sprintf("fabricated report for sampled input %d", x)
		}
	}
	return ""
}
