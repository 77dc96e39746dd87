package grid

import (
	"runtime"
	"sync/atomic"
	"time"

	"uncheatgrid/internal/transport"
)

// SupervisorPool verifies many participants concurrently: RunTaskSource
// streams tasks over one pipelined session per connection, with a bound on
// how many exchanges execute at once. Because the supervisor derives
// per-task randomness from hash(seed, task ID), the verdict of a given
// (task, participant) pair does not depend on scheduling.
type SupervisorPool struct {
	sup     *Supervisor
	workers int

	// bytesSent and bytesRecv aggregate supervisor-side traffic across all
	// pooled tasks.
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
}

// NewSupervisorPool creates a pool around a fresh supervisor. workers
// bounds how many task exchanges run at once; values below 1 select
// runtime.NumCPU().
func NewSupervisorPool(cfg SupervisorConfig, workers int) (*SupervisorPool, error) {
	sup, err := NewSupervisor(cfg)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	return &SupervisorPool{sup: sup, workers: workers}, nil
}

// Supervisor exposes the underlying supervisor (for VerifyEvals etc.).
func (p *SupervisorPool) Supervisor() *Supervisor { return p.sup }

// VerifyEvals reports the aggregated supervisor-side f evaluations across
// all tasks run through the pool.
func (p *SupervisorPool) VerifyEvals() int64 { return p.sup.VerifyEvals() }

// BytesSent reports the aggregated supervisor-side bytes sent across all
// completed pooled tasks.
func (p *SupervisorPool) BytesSent() int64 { return p.bytesSent.Load() }

// BytesRecv reports the aggregated supervisor-side bytes received across
// all completed pooled tasks.
func (p *SupervisorPool) BytesRecv() int64 { return p.bytesRecv.Load() }

// StreamedOutcome pairs a completed task outcome with the connection (and
// thus the participant) that executed it — needed because work stealing
// makes the task→connection pairing scheduling-dependent.
type StreamedOutcome struct {
	Outcome *TaskOutcome
	Conn    transport.Conn
}

// TaskStream is the handle of a streaming pooled run. Consumers must drain
// Outcomes; the channel closes when the run finishes, after which Err
// reports the run's terminal error (nil on success).
type TaskStream struct {
	outcomes chan StreamedOutcome
	done     chan struct{}
	err      error
	d        *dispatcher
}

// Outcomes returns the stream of completed tasks in completion order.
func (s *TaskStream) Outcomes() <-chan StreamedOutcome { return s.outcomes }

// Err blocks until the run finishes and reports its first error.
func (s *TaskStream) Err() error {
	<-s.done
	return s.err
}

// Retire permanently retires a connection (and every replacement dialed for
// it) from taking fresh tasks. Everything on the connection that has not
// begun an exchange — claims its workers hold but have not started, and
// tickets placement queued on it (pinned streams) — is recalled and
// rerouted to other connections; exchanges already started, including
// resumed ones, still finish. Because retirement, placement and exchange
// starts serialize on the dispatcher's lock, a Retire call happens-before
// every later start: no task begins on a connection after Retire returned.
// Double-check replicas are the exception: placement chose their
// connections as a group, so a replica already placed on the connection
// still runs there, and Retire only keeps new groups off it.
func (s *TaskStream) Retire(conn transport.Conn) {
	s.d.retireConn(conn)
}

// TaskSource feeds a streaming run one task at a time: it returns the i-th
// task of the run (i counts from 0) and reports false once the stream is
// exhausted. Sources are consulted lazily under the dispatcher lock — only
// a bounded look-ahead of tickets is ever materialized, so a source backed
// by a generator can describe runs far larger than memory. A source must be
// deterministic in i: checkpoint restore re-reads the same indices, and so
// does a placement that had to wait for a busy connection.
type TaskSource func(i uint64) (Task, bool)

// SliceTaskSource adapts a finite task slice to a TaskSource.
func SliceTaskSource(tasks []Task) TaskSource {
	return func(i uint64) (Task, bool) {
		if i >= uint64(len(tasks)) {
			return Task{}, false
		}
		return tasks[i], true
	}
}

// streamConfig collects RunTaskSource options.
type streamConfig struct {
	redial        func(old transport.Conn) (transport.Conn, error)
	maxReconnects int
	recvTimeout   time.Duration
	replicas      int
	ledgers       []*WindowLedger
	highWater     int
	pinned        bool
	sourceBase    uint64
	drainCkpt     uint64
	doDrainCkpt   bool
	// retireOnReject is the simulator's blacklist policy; see
	// withRetireOnReject.
	retireOnReject bool
}

// StreamOption configures RunTaskSource.
type StreamOption interface {
	applyStream(*streamConfig)
}

type redialOption struct {
	fn func(old transport.Conn) (transport.Conn, error)
}

func (o redialOption) applyStream(c *streamConfig) { c.redial = o.fn }

// WithRedial enables reconnect-and-resume: when a session's connection is
// quarantined after a transport fault, fn is asked for a replacement
// connection to the same participant. In-flight tasks re-attach to the
// replacement mid-protocol via the resume handshake instead of restarting.
// Without a redial function (the default), tasks that had received nothing
// restart on other connections and tasks bound mid-protocol are restarted
// from scratch elsewhere.
func WithRedial(fn func(old transport.Conn) (transport.Conn, error)) StreamOption {
	return redialOption{fn}
}

type maxReconnectsOption int

func (o maxReconnectsOption) applyStream(c *streamConfig) { c.maxReconnects = int(o) }

// WithMaxReconnects bounds how many replacement connections one
// participant's slot may consume before it is declared permanently dead
// (default 4). Tasks stranded on a dead slot are restarted from scratch on
// the surviving connections — with a fresh per-task randomness stream, so
// the retried verdict is identical to a clean first run on the new
// participant. A double-check replica stranded there fails the run with
// ErrReplicaLost instead.
func WithMaxReconnects(n int) StreamOption { return maxReconnectsOption(n) }

type streamRecvTimeoutOption time.Duration

func (o streamRecvTimeoutOption) applyStream(c *streamConfig) {
	c.recvTimeout = time.Duration(o)
}

// WithStreamRecvTimeout forwards a receive watchdog to every session the
// stream opens (see WithSessionRecvTimeout): silently dropped frames become
// quarantines, and with WithRedial, resumes.
func WithStreamRecvTimeout(d time.Duration) StreamOption { return streamRecvTimeoutOption(d) }

type replicasOption int

func (o replicasOption) applyStream(c *streamConfig) { c.replicas = int(o) }

// WithReplicas sets the double-check group size of a replicated stream:
// every task fans out to n pairwise-distinct connections whose uploads are
// compared once all n settled (default 2 for the double-check scheme). Only
// valid with the double-check scheme, which in turn requires at least n
// connections — and distinct connections must reach distinct participants,
// or the comparison means nothing. The stream emits n outcomes per task,
// one per replica.
func WithReplicas(n int) StreamOption { return replicasOption(n) }

type windowSettleOption struct {
	ledgers []*WindowLedger
}

func (o windowSettleOption) applyStream(c *streamConfig) { c.ledgers = o.ledgers }

// WithWindowSettle arms rolling-window verification on a stream: ledgers[i]
// (nil entries allowed) verifies the window commits arriving on conns[i],
// banking each task's stream digest at decision time and auditing the
// sampled Merkle paths of every commit against them. Ledgers outlive the
// stream — pass the same ledger for the same participant across successive
// streams (checkpoint segments) and the commitment chain continues
// seamlessly. Requires a spec with WindowTasks > 0.
func WithWindowSettle(ledgers []*WindowLedger) StreamOption {
	return windowSettleOption{ledgers}
}

type highWaterOption int

func (o highWaterOption) applyStream(c *streamConfig) { c.highWater = int(o) }

// WithHighWater bounds how many tasks a source-fed stream materializes as
// tickets ahead of execution (default 2 × window × connections). Memory for
// an unbounded run is O(high water + in-flight), independent of stream
// length.
func WithHighWater(n int) StreamOption { return highWaterOption(n) }

type pinnedPlacementOption struct{}

func (o pinnedPlacementOption) applyStream(c *streamConfig) { c.pinned = true }

// WithPinnedPlacement replaces work stealing with deterministic placement:
// task i runs on connection i mod len(conns), independent of scheduling
// timing. Checkpoint/restore runs use this so a restarted run re-executes
// each task on the same participant the clean run would have used, keeping
// verdicts and per-participant tallies byte-identical. A retired or dead
// connection drops out of the rotation, which shifts every later pairing;
// the promise holds while every link lives and none is retired. Replicated
// streams always place this way.
func WithPinnedPlacement() StreamOption { return pinnedPlacementOption{} }

type sourceBaseOption uint64

func (o sourceBaseOption) applyStream(c *streamConfig) { c.sourceBase = uint64(o) }

// WithSourceBase starts the task source's index walk at base instead of 0:
// the source is consulted with absolute indices base, base+1, … — and, under
// WithPinnedPlacement, task index i maps to connection i mod len(conns)
// using that absolute index (the placement cursor starts where base tasks
// would have left it). Segmented runs (checkpoint/restore) pass each
// segment's first task index here so placement is a pure function of the
// task's position in the whole stream, not of where segment boundaries fall.
func WithSourceBase(base uint64) StreamOption { return sourceBaseOption(base) }

type drainCheckpointOption uint64

func (o drainCheckpointOption) applyStream(c *streamConfig) {
	c.drainCkpt = uint64(o)
	c.doDrainCkpt = true
}

// WithDrainCheckpoint makes the stream end with a checkpoint barrier: after
// every task settles and before the sessions close, each surviving
// connection receives a msgCheckpoint carrying seq and the stream completes
// only after all of them acknowledge (having persisted their durable state,
// see WithCheckpointDir). Dead connections are skipped — their participants
// restore from the previous checkpoint.
func WithDrainCheckpoint(seq uint64) StreamOption { return drainCheckpointOption(seq) }

type retireOnRejectOption struct{}

func (retireOnRejectOption) applyStream(c *streamConfig) { c.retireOnReject = true }

// withRetireOnReject is the simulator's blacklist (SimConfig.Blacklist),
// decided where tasks are placed: a rejecting outcome retires its connection
// as it settles, under the dispatcher lock, and placement waits on a
// connection that already holds `window` undecided tasks instead of looking
// past it (see dispatcher.placeLocked). Unexported: outside the simulator a
// caller blacklists with TaskStream.Retire on whatever evidence it likes.
func withRetireOnReject() StreamOption { return retireOnRejectOption{} }
