package grid

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"uncheatgrid/internal/cheat"
	"uncheatgrid/internal/core"
	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/merkle"
	"uncheatgrid/internal/shortsha"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// ProducerFactory builds a participant behaviour around the (counted)
// workload of an assigned task. The grid layer supplies the factory so one
// Participant can execute many tasks with a consistent persona.
type ProducerFactory func(f workload.Function) (cheat.Producer, error)

// HonestFactory returns the fully honest behaviour.
func HonestFactory(f workload.Function) (cheat.Producer, error) {
	return cheat.NewHonest(f), nil
}

// SemiHonestFactory returns a factory producing cheaters with honesty ratio
// r seeded by seed.
func SemiHonestFactory(r float64, seed uint64) ProducerFactory {
	return func(f workload.Function) (cheat.Producer, error) {
		return cheat.NewSemiHonest(f, r, seed)
	}
}

// MaliciousFactory returns a factory producing report saboteurs.
func MaliciousFactory(corruptProb float64, seed uint64) ProducerFactory {
	return func(f workload.Function) (cheat.Producer, error) {
		return cheat.NewMalicious(f, corruptProb, seed)
	}
}

// participantConfig collects construction options.
type participantConfig struct {
	proverParallelism int
	checkpointDir     string
}

// ParticipantOption customizes a participant.
type ParticipantOption interface {
	applyParticipant(*participantConfig)
}

type proverParallelismOption int

func (o proverParallelismOption) applyParticipant(c *participantConfig) {
	c.proverParallelism = int(o)
}

// WithProverParallelism makes the participant hash its CBS commitment tree
// with p parallel workers (merkle.WithParallelism). Claimed values are still
// evaluated and screened serially in index order — the committed root and
// the report stream are identical to a sequential participant's; only the
// tree construction fans out. p <= 1, non-CBS schemes, and storage-bounded
// (SubtreeHeight > 0) assignments build sequentially. Either way every claim
// of one task, and so every evaluation of f, is made from that task's own
// goroutine: the per-task evaluation tally (workload.Counter) is a plain
// field and relies on it.
func WithProverParallelism(p int) ParticipantOption { return proverParallelismOption(p) }

type checkpointDirOption string

func (o checkpointDirOption) applyParticipant(c *participantConfig) {
	c.checkpointDir = string(o)
}

// WithCheckpointDir makes the participant durable: on every checkpoint
// request (msgCheckpoint) it serializes its counters and rolling-window
// state to a versioned, CRC-guarded file under dir before acknowledging,
// and RestoreCheckpoint resurrects that state after a crash. Without a
// directory, checkpoint requests are acknowledged without persisting.
func WithCheckpointDir(dir string) ParticipantOption { return checkpointDirOption(dir) }

// Participant is a grid worker: it receives task assignments over a
// connection, evaluates its (possibly cheating) results, and speaks the
// verification protocol named in each assignment, with as many tasks
// interleaved on the connection as the supervisor's session window allows.
type Participant struct {
	id      string
	factory ProducerFactory
	cfg     participantConfig

	mu       sync.Mutex
	evals    int64
	tasks    int
	accepted int
	rejected int
	behavior string
	// counted guards the per-task verdict counters against double counting:
	// a verdict whose acknowledgement was lost to a fault is re-delivered on
	// the resumed connection, and the re-run must not count it twice. Each
	// entry maps a counted task ID to its tombstone; countedOrder keeps the
	// tombstones in insertion order so the memory can be capped
	// (maxVerdictTombstones) by evicting the oldest — a long-lived worker
	// serving unboundedly many distinct tasks stays bounded. A fresh
	// (non-resume) assignment reusing an ID clears its tombstone (the order
	// entry goes stale and is skipped or compacted away), unless it arrives
	// on an older serve session than the one that counted the task: then it
	// is an assignment the supervisor sent once on a link it has since
	// abandoned, delivered late, and clearing would let the next verdict
	// re-delivery on the live link count the task again. sessions numbers
	// the serve sessions in the order they started.
	counted      map[uint64]countedTombstone
	countedOrder []countedTombstone
	countedSeq   uint64
	sessions     uint64
	// windows holds the rolling-commitment state once the first windowed
	// assignment arrives; all windowed tasks of one participant must share
	// a spec, since the commitment chain is a single history.
	windows *participantWindows
}

// countedTombstone is one entry of the participant's verdict-tombstone
// queue: a task ID, the insertion sequence that distinguishes it from a
// stale entry for the same ID, and the serve session that counted it.
type countedTombstone struct {
	id, seq, session uint64
}

// maxVerdictTombstones caps how many counted-verdict tombstones a
// participant retains. A tombstone is only needed while its verdict could
// still be re-delivered — the window between delivery and the supervisor
// observing the ack, which spans at most one resume round trip — so
// evicting a tombstone after thousands of newer tasks completed cannot
// realistically double-count. A variable so tests can exercise eviction
// without running thousands of tasks.
var maxVerdictTombstones = 4096

// NewParticipant creates a worker. id labels it in reports; factory decides
// its honesty.
func NewParticipant(id string, factory ProducerFactory, opts ...ParticipantOption) (*Participant, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty participant id", ErrBadConfig)
	}
	if factory == nil {
		return nil, fmt.Errorf("%w: nil producer factory", ErrBadConfig)
	}
	p := &Participant{id: id, factory: factory, counted: make(map[uint64]countedTombstone)}
	for _, opt := range opts {
		opt.applyParticipant(&p.cfg)
	}
	return p, nil
}

// ID reports the participant's label.
func (p *Participant) ID() string { return p.id }

// Totals summarizes a participant's lifetime activity.
type Totals struct {
	// Behavior is the persona name from the last executed task.
	Behavior string
	// Tasks counts completed task executions.
	Tasks int
	// Accepted and Rejected count supervisor verdicts.
	Accepted, Rejected int
	// FEvals counts evaluations of f across all tasks.
	FEvals int64
}

// Totals returns a snapshot of the participant's counters.
func (p *Participant) Totals() Totals {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Totals{
		Behavior: p.behavior,
		Tasks:    p.tasks,
		Accepted: p.accepted,
		Rejected: p.rejected,
		FEvals:   p.evals,
	}
}

// sessionInboxCap bounds undelivered messages per in-flight task.
// No scheme sends more than two supervisor→participant messages per task
// after the assignment (challenge and verdict), so exceeding the bound
// means the peer is violating the protocol.
const sessionInboxCap = 8

// participantSession is the worker-side end of a session: the serve loop
// demultiplexes tagged messages by task ID and executes the assigned tasks
// concurrently, each in a task slot the session keeps. Outgoing messages
// funnel through a coalescing batch writer.
type participantSession struct {
	p *Participant
	// seq is the session's place in the participant's session order.
	seq    uint64
	conn   transport.Conn
	writer *batchWriter
	// executors counts the slots' executor goroutines.
	executors sync.WaitGroup
	// batch is the serve loop's decode scratch.
	batch []taggedMsg
	// work is the workload instance the session's tasks share.
	work workloadCache

	// mu guards the in-flight tasks and, inside each slot, its assignment and
	// inbox, and the free lists of task slots and commitment kits.
	mu      sync.Mutex
	tasks   map[uint64]*participantTask
	slots   []*participantTask
	kits    []*commitKit
	done    bool
	taskErr error
}

// commitKit is everything a CBS commitment needs whose shape does not change
// from one task to the next: the prover (tree arena, leaf slab — where the
// commit pass appends every claim — offsets, hash state, root buffer), the
// multiproof scratch and the response. A connection lends one to each task in
// flight and rebuilds it in place for the next, so a participant's O(n) tree
// storage (Section 3.3 is about shrinking it) is bought once per task in
// flight rather than once per task.
//
// Ownership, the way transport/pool.go states it for frames. Borrow:
// startTask pops a kit off participantSession.kits (or the task makes its own
// in runCBS when the list is empty) under the ps.mu it takes to register the
// task. Aliases: taskExecution.digest is the kit's root buffer until the
// window settle that follows the verdict has read it; the challenge runCBS
// decodes into indices is read by the response alone; nothing else outlives
// runCBS, because every message it sends — commitment, reports, proofs — is
// marshaled into a payload of its own, which the writer owns until flush.
// Return: participantSession.returnKit, under ps.mu, after cutting digest —
// called by participantTask.run once the task's execution is over (the
// window settle has read the digest) and before the verdict ack is enqueued:
// the ack frees the supervisor's window slot, and the task it assigns next
// must find the kit listed. A task resumed on a replacement connection runs
// in a slot of that session and rebuilds its tree bit-identically in that
// session's kit, so no kit ever crosses a connection: the list never holds
// more kits than the connection had tasks in flight at once, and it dies
// with the connection.
type commitKit struct {
	prover  core.Prover
	scratch merkle.ProofScratch
	resp    core.Response
	indices []uint64
	// exec is the task borrowing the kit; run, made once, is the leaf run
	// the prover sees and forwards to it.
	exec *taskExecution
	run  merkle.LeafRun
}

// scribbleKit, when set (tests only), is handed every kit on its way back to
// a free list — a participant's commitKit or a supervisor's auditKit, the
// other argument nil — to overwrite, so a stale alias into a returned kit
// reads garbage instead of the previous task's bytes. scribbleSlot does the
// same for a participant's task slot.
var (
	scribbleKit  func(commit *commitKit, audit *auditKit)
	scribbleSlot func(slot *participantTask)
)

// Serve owns conn until the peer closes it (io.EOF), serving the
// supervisor's session: every frame is a msgBatch of task-tagged messages,
// demultiplexed by task ID, and the assigned tasks execute concurrently.
// Anything else — a bare msgAssign included — is ErrUnexpectedMessage and
// ends the serve with the connection closed. It returns the first receive,
// dispatch, task, or send error, once every task slot's executor has exited.
func (p *Participant) Serve(conn transport.Conn) error {
	p.mu.Lock()
	p.sessions++
	ps := &participantSession{
		p:     p,
		seq:   p.sessions,
		conn:  conn,
		tasks: make(map[uint64]*participantTask),
	}
	p.mu.Unlock()
	// A writer failure aborts the session: closing the connection fails
	// the serve loop, which tears the inboxes down so blocked tasks (and
	// the peer) cannot wait forever on frames that were discarded.
	ps.writer = newBatchWriter(conn, func(error) { _ = conn.Close() })
	var err error
	for err == nil {
		var msg transport.Message
		msg, err = conn.Recv()
		if errors.Is(err, io.EOF) {
			err = nil
			break
		}
		if err != nil {
			err = fmt.Errorf("grid: participant %s recv: %w", p.id, err)
			break
		}
		err = ps.handleFrame(msg)
	}
	if errors.Is(err, ErrFrameCorrupt) || errors.Is(err, transport.ErrFrameCorrupt) {
		// Link damage, not peer misbehavior: kill the connection so the
		// supervisor quarantines it and resumes elsewhere, and end this
		// serve cleanly — the replacement connection gets its own loop.
		_ = conn.Close()
		err = nil
	}
	if err != nil {
		// A protocol error leaves the peer's session waiting on a half-dead
		// exchange; closing the connection unblocks its puller.
		_ = conn.Close()
	}
	// Stop routing. Tasks still blocked on a message observe EOF once they
	// drain what was queued before shutdown; messages already routed (the
	// peer sends every verdict before closing) complete normally. Every
	// executor exits once its slot is idle.
	ps.mu.Lock()
	ps.done = true
	for _, t := range ps.tasks {
		t.arrived.Broadcast()
	}
	for _, t := range ps.slots {
		t.arrived.Broadcast()
	}
	ps.mu.Unlock()
	ps.executors.Wait()
	werr := ps.writer.close()
	ps.mu.Lock()
	taskErr := ps.taskErr
	ps.mu.Unlock()
	// Task and writer failures abort the session by closing the connection,
	// so a resulting ErrClosed on the serve loop is a symptom — prefer the
	// root cause. With no root cause, a closed connection is the session's
	// normal end: the writer may observe the peer's close first (e.g. a
	// final verdict-ack flush racing the supervisor's teardown) and close
	// our endpoint, turning the loop's EOF into ErrClosed.
	if err == nil || errors.Is(err, transport.ErrClosed) {
		switch {
		case taskErr != nil:
			err = taskErr
		case werr != nil && !errors.Is(werr, transport.ErrClosed):
			err = fmt.Errorf("grid: participant %s send: %w", p.id, werr)
		default:
			err = nil
		}
	}
	return err
}

// handleFrame validates and dispatches one incoming session frame.
func (ps *participantSession) handleFrame(frame transport.Message) error {
	if frame.Type != msgBatch {
		return fmt.Errorf("%w: participant %s got frame type %d, want batch",
			ErrUnexpectedMessage, ps.p.id, frame.Type)
	}
	msgs, err := decodeBatch(ps.batch[:0], frame.Payload)
	// The frame buffer is dead on both outcomes (transport/pool.go has the
	// ownership rule).
	transport.RecyclePayload(frame.Payload)
	if err != nil {
		return fmt.Errorf("grid: participant %s: %w", ps.p.id, err)
	}
	defer func() {
		clear(msgs) // the tasks own the payloads now
		ps.batch = msgs[:0]
	}()
	for _, tm := range msgs {
		if err := ps.dispatch(tm); err != nil {
			return err
		}
	}
	return nil
}

// dispatch routes one tagged message: assignments and resume handshakes
// start a new concurrent task execution, everything else lands in the owning
// task's inbox.
func (ps *participantSession) dispatch(tm taggedMsg) error {
	if tm.TaskID == ctrlTaskID {
		return ps.handleCtrl(tm)
	}
	switch tm.Type {
	case msgAssign:
		a, err := decodeAssignment(tm.Payload)
		if err != nil {
			return fmt.Errorf("grid: participant %s: %w", ps.p.id, err)
		}
		if a.Task.ID != tm.TaskID {
			return fmt.Errorf("%w: assignment for task %d tagged %d",
				ErrBadPayload, a.Task.ID, tm.TaskID)
		}
		return ps.startTask(a, nil)
	case msgResume:
		m, err := decodeResume(tm.Payload)
		if err != nil {
			return fmt.Errorf("grid: participant %s: %w", ps.p.id, err)
		}
		if m.Assignment.Task.ID != tm.TaskID {
			return fmt.Errorf("%w: resume for task %d tagged %d",
				ErrBadPayload, m.Assignment.Task.ID, tm.TaskID)
		}
		return ps.startTask(m.Assignment, &m)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	t, ok := ps.tasks[tm.TaskID]
	if !ok {
		return fmt.Errorf("%w: message type %d for unknown task %d",
			ErrUnexpectedMessage, tm.Type, tm.TaskID)
	}
	if t.queued == len(t.inbox) {
		return fmt.Errorf("%w: task %d inbox overflow", ErrUnexpectedMessage, tm.TaskID)
	}
	t.inbox[(t.head+t.queued)%len(t.inbox)] = transport.Message{Type: tm.Type, Payload: tm.Payload}
	t.queued++
	t.arrived.Signal()
	return nil
}

// sendCtrl enqueues one session-scoped control message through the batch
// writer, FIFO with the per-task traffic already queued there.
func (ps *participantSession) sendCtrl(typ uint8, payload []byte) error {
	return ps.writer.enqueue(taggedMsg{TaskID: ctrlTaskID, Type: typ, Payload: payload}, nil)
}

// handleCtrl serves one session-scoped control message. A checkpoint
// request persists the participant's durable state (when a checkpoint
// directory is configured) and is always acknowledged — the ack is the
// supervisor's barrier, so it must not depend on local configuration.
func (ps *participantSession) handleCtrl(tm taggedMsg) error {
	switch tm.Type {
	case msgCheckpoint:
		cp, err := decodeCheckpoint(tm.Payload)
		if err != nil {
			return fmt.Errorf("grid: participant %s: %w", ps.p.id, err)
		}
		if err := ps.p.WriteCheckpoint(cp.Seq); err != nil {
			return fmt.Errorf("grid: participant %s checkpoint: %w", ps.p.id, err)
		}
		return ps.sendCtrl(msgCheckpointAck, nil)
	default:
		return fmt.Errorf("%w: participant %s got ctrl message type %d",
			ErrUnexpectedMessage, ps.p.id, tm.Type)
	}
}

// participantTask is a task slot of a participant session, in one
// allocation: its end of the session (tagged sends, the inbox the serve loop
// fills), the assignment it runs, the execution state executeTask sets up —
// the evaluation counter the producer is built around and the scheme
// runner's scratch — and an executor goroutine that runs one assignment after
// another (serve).
//
// Ownership, like commitKit's. Borrow: startTask pops a slot off
// participantSession.slots under ps.mu — or makes one and starts its
// executor when the list is empty — clears its inbox, hands it the
// assignment and wakes the executor. Aliases: ps.tasks routes the task's
// messages to the slot until run takes the task out; every message the task
// sends is a payload of its own. Return: run, under the ps.mu in which it
// takes the task out of ps.tasks and returns its kit, and before it enqueues
// the verdict ack — which frees the supervisor's window slot, so the task the
// supervisor assigns next finds the slot listed. A session whose supervisor
// waits for every ack therefore holds no more slots, nor executors, than its
// window, and Serve, once routing stops, wakes every executor and waits for
// it to exit.
type participantTask struct {
	ps  *participantSession
	a   assignment
	res *resumeMsg
	// resume is the storage res points at for a resumed task.
	resume resumeMsg

	// assigned says the slot holds a task for its executor; inbox is a ring of
	// undelivered messages, queued of them from head on; arrived wakes Recv
	// and the idle executor. All four are guarded by ps.mu.
	assigned     bool
	inbox        [sessionInboxCap]transport.Message
	head, queued int
	arrived      sync.Cond

	counter workload.Counter
	exec    taskExecution
}

// startTask registers the task and hands the assignment to a task slot's
// executor, which runs it over the task's end of the session. res carries
// the supervisor's resume handshake when the task is re-announced on a
// replacement connection; the execution then re-derives its deterministic
// state and replays only what the supervisor is missing.
func (ps *participantSession) startTask(a assignment, res *resumeMsg) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, dup := ps.tasks[a.Task.ID]; dup {
		return fmt.Errorf("%w: duplicate in-flight task %d", ErrUnexpectedMessage, a.Task.ID)
	}
	var t *participantTask
	if last := len(ps.slots) - 1; last >= 0 {
		t, ps.slots = ps.slots[last], ps.slots[:last]
	} else {
		t = &participantTask{ps: ps}
		t.arrived.L = &ps.mu
		ps.executors.Add(1)
		go t.serve()
	}
	t.a, t.res = a, nil
	if res != nil {
		t.resume = *res
		t.res = &t.resume
	}
	// A task that failed may have left messages behind.
	t.inbox, t.head, t.queued = [sessionInboxCap]transport.Message{}, 0, 0
	if last := len(ps.kits) - 1; last >= 0 {
		t.exec.kit, ps.kits = ps.kits[last], ps.kits[:last]
	}
	ps.tasks[a.Task.ID] = t
	t.assigned = true
	t.arrived.Signal()
	return nil
}

// serve is the slot's executor: it runs every assignment startTask hands the
// slot and exits once the session has stopped routing and the slot is idle.
func (t *participantTask) serve() {
	ps := t.ps
	defer ps.executors.Done()
	ps.mu.Lock()
	for {
		for !t.assigned && !ps.done {
			t.arrived.Wait()
		}
		if !t.assigned {
			ps.mu.Unlock()
			return
		}
		ps.mu.Unlock()
		t.run()
		ps.mu.Lock()
	}
}

// run executes the slot's task, retires it from the session, puts its kit
// and the slot back on the session's lists and, once the verdict landed,
// acknowledges it — reading nothing of the slot after listing it.
func (t *participantTask) run() {
	ps, id := t.ps, t.a.Task.ID
	err := ps.p.executeTask(t, t.a, t.res)
	ps.mu.Lock()
	ps.returnKit(t)
	delete(ps.tasks, id)
	t.assigned = false
	if scribbleSlot != nil {
		scribbleSlot(t)
	}
	ps.slots = append(ps.slots, t)
	ps.mu.Unlock()
	if err == nil {
		// Acknowledge so the supervisor knows the ruling landed; a verdict
		// frame lost to a fault is re-delivered on the resumed connection
		// until acked (recordVerdict keeps the counters exactly-once under
		// re-delivery).
		err = ps.writer.enqueue(taggedMsg{TaskID: id, Type: msgVerdictAck}, nil)
	}
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
		// A connection that died under the task is a clean per-task abort,
		// not a session error: the supervisor holds resumable state and will
		// re-announce on a replacement connection.
		return
	}
	ps.mu.Lock()
	if ps.taskErr == nil {
		ps.taskErr = fmt.Errorf("grid: participant %s task %d: %w", ps.p.id, id, err)
	}
	ps.mu.Unlock()
	// A failed task cannot answer its supervisor-side exchange, which would
	// otherwise wait forever. Abort the whole session: closing the connection
	// unblocks both the peer and our own serve loop.
	_ = ps.conn.Close()
}

// returnKit puts the task's commitment kit, if it still holds one, back on
// the session's list (commitKit has the rule): the digest is the last alias
// into it. Caller holds ps.mu.
func (ps *participantSession) returnKit(t *participantTask) {
	kit := t.exec.kit
	if kit == nil {
		return
	}
	t.exec.kit, t.exec.digest, kit.exec = nil, nil, nil
	if scribbleKit != nil {
		scribbleKit(kit, nil)
	}
	ps.kits = append(ps.kits, kit)
}

// Send implements protoConn.
func (t *participantTask) Send(m transport.Message) error {
	return t.ps.writer.enqueue(taggedMsg{TaskID: t.a.Task.ID, Type: m.Type, Payload: m.Payload}, nil)
}

// SendPair implements protoConn: Send for two messages the session writer
// puts in one frame, a first.
func (t *participantTask) SendPair(a, b transport.Message) error {
	id := t.a.Task.ID
	return t.ps.writer.enqueuePair(taggedMsg{TaskID: id, Type: a.Type, Payload: a.Payload},
		taggedMsg{TaskID: id, Type: b.Type, Payload: b.Payload}, nil)
}

// Recv implements protoConn: the next routed message, io.EOF once the
// session stopped routing and what it had queued is drained.
func (t *participantTask) Recv() (transport.Message, error) {
	t.ps.mu.Lock()
	defer t.ps.mu.Unlock()
	for t.queued == 0 {
		if t.ps.done {
			return transport.Message{}, io.EOF
		}
		t.arrived.Wait()
	}
	m := t.inbox[t.head]
	t.inbox[t.head] = transport.Message{} // do not pin the payload
	t.head = (t.head + 1) % len(t.inbox)
	t.queued--
	return m, nil
}

// executeTask runs one assignment up to its verdict, including the
// verification exchange the scheme requires, over the task's session
// endpoint; the caller acknowledges the verdict (run). A non-nil res means the
// supervisor is resuming the task on a replacement connection: the execution
// recomputes its deterministic state (producers decide per input, so a re-run
// claims identical values) and replays only the messages the supervisor does
// not already hold.
func (p *Participant) executeTask(conn protoConn, a assignment, res *resumeMsg) error {
	if err := a.Task.validate(); err != nil {
		return err
	}
	// A session task brings the storage for its execution state; a bare
	// protoConn (a scheme runner driven directly) gets its own, and counts
	// as session 0.
	t, _ := conn.(*participantTask)
	if t == nil {
		t = new(participantTask)
	}
	var session uint64
	if t.ps != nil {
		session = t.ps.seq
	}
	if res == nil {
		p.supersede(a.Task.ID, session)
	}
	if err := a.Spec.validate(); err != nil {
		return err
	}
	var cache *workloadCache // a bare protoConn's task shares nothing
	if t.ps != nil {
		cache = &t.ps.work
	}
	w, err := cache.get(a.Task.Workload, a.Task.Seed)
	if err != nil {
		return err
	}
	t.counter = *workload.Count(w.f)
	producer, err := p.factory(&t.counter)
	if err != nil {
		return err
	}
	t.exec = taskExecution{
		task:        a.Task,
		spec:        a.Spec,
		producer:    producer,
		screener:    w.screener,
		parallelism: p.cfg.proverParallelism,
		kit:         t.exec.kit,
	}
	exec := &t.exec
	switch a.Spec.Kind {
	case SchemeCBS:
		err = exec.runCBS(conn, false, nil, res)
	case SchemeNICBS:
		chain, chainErr := hashchain.New(a.Spec.ChainIters)
		if chainErr != nil {
			return chainErr
		}
		err = exec.runCBS(conn, true, chain, res)
	case SchemeNaive, SchemeDoubleCheck:
		err = exec.runUpload(conn, res)
	case SchemeRinger:
		err = exec.runRinger(conn, a.RingerImages, res)
	default:
		return fmt.Errorf("%w: scheme %v", ErrBadConfig, a.Spec.Kind)
	}
	if err != nil {
		return err
	}

	verdict, err := recvVerdict(conn)
	if err != nil {
		return err
	}
	first := p.recordVerdict(a.Task.ID, session, producer.Name(), verdict, t.counter.Evals())
	// A windowed task joins the rolling commitment exactly when its verdict
	// first counts, and the window commit (if this task fills one) must be
	// enqueued before the verdict ack: the batch writer is FIFO, so the
	// supervisor always processes the commit before it settles the task. The
	// settle is the kit's last use.
	if first && a.Spec.WindowTasks > 0 && exec.digest != nil && t.ps != nil {
		pw, err := p.windowsFor(a.Spec)
		if err != nil {
			return err
		}
		digest := streamDigest(a.Task.ID, a.Spec.Kind, exec.digest)
		if err := pw.settle(a.Task.ID, digest, t.ps.sendCtrl); err != nil {
			return err
		}
	}
	return nil
}

// supersede drops the counted tombstone of task id for a fresh assignment
// that arrived on session: the assignment supersedes any earlier task that
// used the ID (a later run numbering its tasks from zero, say), and the new
// task's verdict must be tallied. A tombstone a newer session set stays —
// the assignment is a stale one (see Participant.counted). Only a resume can
// re-deliver an already-counted verdict.
func (p *Participant) supersede(id, session uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if tomb, ok := p.counted[id]; ok && tomb.session <= session {
		delete(p.counted, id)
	}
}

// windowsFor returns the participant's rolling-commitment state, creating
// it from the first windowed spec seen. One participant runs one window
// history; a conflicting spec is a configuration error.
func (p *Participant) windowsFor(spec SchemeSpec) (*participantWindows, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.windows == nil {
		pw, err := newParticipantWindows(spec)
		if err != nil {
			return nil, err
		}
		p.windows = pw
		return pw, nil
	}
	if p.windows.w != spec.WindowTasks || p.windows.m != spec.WindowSamples {
		return nil, fmt.Errorf("%w: participant %s saw window spec %d/%d after %d/%d",
			ErrBadConfig, p.id, spec.WindowTasks, spec.WindowSamples, p.windows.w, p.windows.m)
	}
	return p.windows, nil
}

// recordVerdict folds one task's outcome into the participant's counters.
// Evaluation effort is real work and accrues per execution; the per-task
// verdict tallies count each task at most once, however many times a fault
// forces its verdict to be re-delivered.
//
// It reports whether this is the first time the task's verdict counted —
// the signal that downstream exactly-once work (the rolling window append)
// should run.
//
//gridlint:credit the participant's only tally point; exactly-once under verdict re-delivery
func (p *Participant) recordVerdict(taskID, session uint64, behavior string, verdict Verdict, evals int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.behavior = behavior
	p.evals += evals
	if _, done := p.counted[taskID]; done {
		return false
	}
	p.countedSeq++
	tomb := countedTombstone{id: taskID, seq: p.countedSeq, session: session}
	p.counted[taskID] = tomb
	p.countedOrder = append(p.countedOrder, tomb)
	p.pruneTombstonesLocked()
	p.tasks++
	if verdict.Accepted {
		p.accepted++
	} else {
		p.rejected++
	}
	return true
}

// pruneTombstonesLocked bounds the verdict-tombstone memory: the oldest
// tombstones are released once more than maxVerdictTombstones distinct
// counted tasks are retained, and the order queue is compacted when stale
// entries (tombstones cleared by fresh-assignment ID reuse, or superseded
// re-insertions) pile up. Caller holds p.mu.
func (p *Participant) pruneTombstonesLocked() {
	for len(p.counted) > maxVerdictTombstones && len(p.countedOrder) > 0 {
		e := p.countedOrder[0]
		p.countedOrder = p.countedOrder[1:]
		if p.counted[e.id].seq == e.seq {
			delete(p.counted, e.id)
		}
	}
	if len(p.countedOrder) >= 2*maxVerdictTombstones {
		live := p.countedOrder[:0]
		for _, e := range p.countedOrder {
			if p.counted[e.id].seq == e.seq {
				live = append(live, e)
			}
		}
		p.countedOrder = live
	}
}

// taskExecution carries the state of one assignment.
type taskExecution struct {
	task        Task
	spec        SchemeSpec
	producer    cheat.Producer
	screener    workload.Screener
	parallelism int
	// digest is the scheme's primary payload reduced for the rolling window
	// commitment (commitment root, hashed upload, or hashed hit list), set
	// by the scheme runner once that payload is fixed.
	digest []byte

	// runCBS's tree-building state, here so its leaf run captures nothing
	// but the execution: the screened reports, whether the pass claiming
	// the domain is still running (so claims are screened as they are
	// made), and the commitment kit — the session's, lent by startTask, or
	// the execution's own.
	reports   []Report
	screening bool
	kit       *commitKit
}

// claimRun is the participant's merkle.LeafRun: it appends the claims for
// domain indices lo, …, lo+len(ends)-1 to dst in one
// cheat.Producer.AppendClaimBatch call and sets their ends. The pass that
// claims the domain — the tree's commit pass, which asks for every index
// once, in runs in index order (merkle.Tree.Rebuild and NewPartialRuns
// guarantee it), or claimAll — screens each claim as it lands, in index
// order. Every run asked for after it is a §3.3 subtree rebuild, which
// re-claims but must not re-screen or re-report. dst is the tree's own leaf
// storage, so the claims are hashed where they were made.
func (e *taskExecution) claimRun(dst []byte, lo int, ends []int) []byte {
	start := len(dst)
	x0 := e.task.Start + uint64(lo)
	dst = e.producer.AppendClaimBatch(dst, x0, ends)
	if e.screening {
		for j, end := range ends {
			e.screen(x0+uint64(j), dst[start:end], &e.reports)
			start = end
		}
	}
	return dst
}

// claimAndScreen appends the participant's claimed value for domain index i
// to dst, feeding the screener and the behaviour's report filter with it.
func (e *taskExecution) claimAndScreen(dst []byte, i uint64, reports *[]Report) []byte {
	x := e.task.Start + i
	start := len(dst)
	dst = e.producer.AppendClaim(dst, x)
	e.screen(x, dst[start:], reports)
	return dst
}

// screen feeds the claim for x to the screener and the behaviour's report
// filter.
func (e *taskExecution) screen(x uint64, claim []byte, reports *[]Report) {
	s, interesting := e.screener.Screen(x, claim)
	s, interesting = e.producer.Report(x, s, interesting)
	if interesting {
		*reports = append(*reports, Report{X: x, S: s})
	}
}

// claimAll claims and screens the task's whole domain in order into
// e.reports, a run of shortsha.Lanes inputs at a time, and keeps every
// claim: back to back in one slab, sized from the first run (exact when
// outputs are uniform, as every workload's are), claim i ending at ends[i].
func (e *taskExecution) claimAll() (slab []byte, ends []int) {
	n := int(e.task.N)
	ends = make([]int, n)
	e.reports, e.screening = nil, true
	for lo := 0; lo < n; lo += shortsha.Lanes {
		hi := min(lo+shortsha.Lanes, n)
		slab = e.claimRun(slab, lo, ends[lo:hi])
		if lo == 0 {
			slab = slices.Grow(slab, (n-hi)*len(slab)/hi)
		}
	}
	e.screening = false
	return slab, ends
}

// claimedRun is the merkle.LeafRun over claims claimAll made: it copies
// each run out of slab, for the parallel tree build, whose shards ask for
// their runs concurrently.
func claimedRun(slab []byte, ends []int) merkle.LeafRun {
	return func(dst []byte, lo int, out []int) []byte {
		start := 0
		if lo > 0 {
			start = ends[lo-1]
		}
		shift := len(dst) - start
		dst = append(dst, slab[start:ends[lo+len(out)-1]]...)
		for j := range out {
			out[j] = ends[lo+j] + shift
		}
		return dst
	}
}

// runCBS executes Steps 1-3 of (NI-)CBS: build the tree over claimed values
// while screening, send commitment and reports, then answer the challenge
// (interactive) or self-derive it (non-interactive). The tree — whose leaf
// slab the claims are appended into — and the proof are the commitment kit's,
// rebuilt in place (commitKit has the ownership rule). On resume the tree is
// rebuilt — bit-identical, since claims are deterministic — and only the
// messages the supervisor lacks are sent; a challenge the supervisor already
// issued arrives replayed inside res instead of over the wire.
func (e *taskExecution) runCBS(conn protoConn, nonInteractive bool, chain *hashchain.Chain, res *resumeMsg) error {
	kit := e.kit
	if kit == nil {
		// No session lent one (its list was empty, or the runner is driven
		// directly): the execution makes the kit it, or the session, keeps.
		kit = new(commitKit)
		kit.run = func(dst []byte, lo int, ends []int) []byte { return kit.exec.claimRun(dst, lo, ends) }
		e.kit = kit
	}
	kit.exec = e
	e.reports, e.screening = nil, true
	run := kit.run
	var opts []core.Option
	if e.spec.SubtreeHeight > 0 {
		opts = append(opts, core.WithSubtreeHeight(e.spec.SubtreeHeight))
	}
	if e.parallelism > 1 && e.spec.SubtreeHeight == 0 {
		// Parallel tree build: the prover's shards ask for runs from many
		// goroutines, but screening must stay a serial in-order pass (report
		// order and producer state are part of the protocol contract). Claim
		// the domain first, then hash the tree in parallel over the frozen
		// claims — the root is bit-identical to the sequential build.
		run = claimedRun(e.claimAll())
		opts = append(opts, core.WithTreeOptions(merkle.WithParallelism(e.parallelism)))
	}
	prover := &kit.prover
	err := prover.Reset(int(e.task.N), run, opts...)
	e.screening = false
	if err != nil {
		return err
	}
	commitment := prover.Commitment()
	e.digest = commitment.Root
	commitPayload, err := commitment.MarshalBinary()
	if err != nil {
		return err
	}
	commit := transport.Message{Type: msgCommit, Payload: commitPayload}
	if err := sendWithReports(conn, commit, res == nil || !res.HaveCommit, e.reports, res == nil || !res.HaveReports); err != nil {
		return err
	}
	if res != nil && res.HaveProofs {
		return nil // the supervisor holds everything; it only owes the verdict
	}

	var ch core.Challenge
	switch {
	case nonInteractive:
		// Steps 2-3 of Section 4.1: the samples come from the commitment
		// itself (Eq. 4); the supervisor re-derives them from the root.
		if ch.Indices, err = chain.SampleIndices(commitment.Root, e.spec.M, commitment.N); err != nil {
			return err
		}
	case res != nil && res.Challenge != nil:
		if err := ch.UnmarshalInto(kit.indices, res.Challenge); err != nil {
			return fmt.Errorf("%w: resumed challenge: %v", ErrBadPayload, err)
		}
		kit.indices = ch.Indices
	default:
		msg, err := conn.Recv()
		if err != nil {
			return err
		}
		if msg.Type != msgChallenge {
			return fmt.Errorf("%w: got type %d, want challenge", ErrUnexpectedMessage, msg.Type)
		}
		if err := ch.UnmarshalInto(kit.indices, msg.Payload); err != nil {
			return fmt.Errorf("%w: challenge: %v", ErrBadPayload, err)
		}
		kit.indices = ch.Indices
	}
	if err := prover.RespondInto(&kit.resp, &kit.scratch, ch.Indices); err != nil {
		return err
	}
	// The marshaled copy is the last read of the tree and the scratch: from
	// here the kit holds nothing the task needs but the root under e.digest.
	respPayload, err := kit.resp.MarshalBinary()
	if err != nil {
		return err
	}
	return conn.Send(transport.Message{Type: msgProofs, Payload: respPayload})
}

// runUpload executes the naive-sampling / double-check participant side:
// compute (or fabricate) everything and upload the full result vector —
// in one frame when it fits, as an ordered chunk stream otherwise. On
// resume, the upload restarts at the first chunk the supervisor is missing
// (chunk boundaries are deterministic, so the stream splices exactly).
func (e *taskExecution) runUpload(conn protoConn, res *resumeMsg) error {
	slab, ends := e.claimAll()
	results := make([][]byte, len(ends))
	start := 0
	for i, end := range ends {
		results[i], start = slab[start:end:end], end
	}
	reports := e.reports
	e.digest = hashResults(results)
	var last transport.Message
	sendLast := res == nil || !res.ResultsDone
	if sendLast {
		var from uint64
		if res != nil {
			from = res.Chunks
		}
		var err error
		if last, err = sendResults(conn, results, from); err != nil {
			return err
		}
	}
	return sendWithReports(conn, last, sendLast, reports, res == nil || !res.HaveReports)
}

// sendResults uploads the encoded result vector — a single msgResults
// message when it fits under uploadChunkBytes, an ordered msgResultChunk
// stream otherwise — up to its last message, which it returns unsent for
// sendWithReports. from skips chunks a previous connection already
// delivered.
func sendResults(conn protoConn, results [][]byte, from uint64) (transport.Message, error) {
	payload := encodeResults(results)
	if len(payload) <= uploadChunkBytes {
		if from > 0 {
			return transport.Message{}, fmt.Errorf("%w: resume at chunk %d of an unchunked upload", ErrUnexpectedMessage, from)
		}
		return transport.Message{Type: msgResults, Payload: payload}, nil
	}
	chunks := uint64((len(payload) + uploadChunkBytes - 1) / uploadChunkBytes)
	if from >= chunks {
		return transport.Message{}, fmt.Errorf("%w: resume at chunk %d of %d", ErrUnexpectedMessage, from, chunks)
	}
	for seq := from; ; seq++ {
		lo := int(seq) * uploadChunkBytes
		hi := min(lo+uploadChunkBytes, len(payload))
		c := resultChunk{Seq: seq, Final: seq == chunks-1, Data: payload[lo:hi]}
		msg := transport.Message{Type: msgResultChunk, Payload: encodeChunk(c)}
		if c.Final {
			return msg, nil
		}
		if err := conn.Send(msg); err != nil {
			return transport.Message{}, err
		}
	}
}

// sendWithReports sends a scheme's last upload message — the commitment,
// the result vector's last message or the ringer hits — when sendLast, and
// the task's reports when sendReports. With both due they share a frame
// (protoConn.SendPair): the supervisor answers neither before the other
// arrives.
func sendWithReports(conn protoConn, last transport.Message, sendLast bool, reports []Report, sendReports bool) error {
	switch {
	case sendLast && sendReports:
		return conn.SendPair(last, reportsMsg(reports))
	case sendLast:
		return conn.Send(last)
	case sendReports:
		return conn.Send(reportsMsg(reports))
	}
	return nil
}

// reportsMsg is the message that delivers a task's screened reports.
func reportsMsg(reports []Report) transport.Message {
	return transport.Message{Type: msgReports, Payload: encodeReports(reports)}
}

// runRinger executes the Golle-Mironov participant side: scan the domain,
// reporting both screened results and inputs whose value matches a planted
// image.
func (e *taskExecution) runRinger(conn protoConn, images [][]byte, res *resumeMsg) error {
	imageSet := make(map[string]struct{}, len(images))
	for _, img := range images {
		imageSet[string(img)] = struct{}{}
	}
	var reports []Report
	var hits []uint64
	var value []byte
	for i := uint64(0); i < e.task.N; i++ {
		value = e.claimAndScreen(value[:0], i, &reports)
		if _, ok := imageSet[string(value)]; ok {
			hits = append(hits, e.task.Start+i)
		}
	}
	e.digest = hashIndices(hits)
	var last transport.Message
	sendLast := res == nil || !res.HaveHits
	if sendLast {
		last = transport.Message{Type: msgRingerHits, Payload: encodeIndices(hits)}
	}
	return sendWithReports(conn, last, sendLast, reports, res == nil || !res.HaveReports)
}

func recvVerdict(conn protoConn) (Verdict, error) {
	msg, err := conn.Recv()
	if err != nil {
		return Verdict{}, err
	}
	if msg.Type != msgVerdict {
		return Verdict{}, fmt.Errorf("%w: got type %d, want verdict", ErrUnexpectedMessage, msg.Type)
	}
	return decodeVerdict(msg.Payload)
}
