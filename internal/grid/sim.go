package grid

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"uncheatgrid/internal/shortsha"
	"uncheatgrid/internal/transport"
)

// SimConfig describes a population run: a supervisor distributing tasks
// over a mixed honest/cheating participant pool, verified with one scheme.
type SimConfig struct {
	// Spec selects the verification scheme.
	Spec SchemeSpec
	// Workload names the registered function f; Seed instantiates it.
	Workload string
	Seed     uint64
	// TaskSize is |D| per task; Tasks is how many windows to assign.
	TaskSize int
	Tasks    int
	// Honest, SemiHonest, and Malicious size the participant pool.
	Honest     int
	SemiHonest int
	Malicious  int
	// HonestyRatio is r for the semi-honest participants.
	HonestyRatio float64
	// CorruptProb is the report-corruption probability for malicious
	// participants.
	CorruptProb float64
	// Replicas is the double-check group size (default 2). With 2
	// replicas a disagreement cannot be attributed, so both sides are
	// rejected; 3 or more lets the majority convict the dissenter. A
	// double-check participant is sent only an upload receipt, so its
	// summary's Accepted/Rejected columns count the supervisor's rulings.
	Replicas int
	// Blacklist removes a participant from scheduling after its first
	// rejected task — the supervisor's natural response to detection. Not
	// with the double-check scheme, whose rulings arrive only once a whole
	// group settled.
	Blacklist bool
	// CrossCheckReports enables the sampled-index screener cross-check.
	CrossCheckReports bool
	// PipelineWindow is the session window: how many task exchanges every
	// participant connection carries at once, in batched frames. 0 means 1 —
	// one exchange at a time per participant, the paper's dialogue. Tasks are
	// placed round-robin over the (non-blacklisted) pool whatever the window,
	// so the task→participant pairing, and with it the report, is the same
	// for every window; only byte counters differ (batch framing).
	//
	// With Blacklist the pairing depends on verdicts. At window 1 it is the
	// strictly serial one — each task goes to the next participant that no
	// earlier task rejected. A larger window lets a participant hold that
	// many undecided tasks, which still finish after its first rejection;
	// everything not yet started on it is recalled.
	//
	// The double-check scheme places each task's replica group on the next
	// Replicas participants of the same rotation; each replica is an upload
	// inside its connection's window like any other task, and the group's
	// comparison runs when its last replica settles, whichever window that
	// was.
	PipelineWindow int
	// Broker routes every supervisor↔participant link through one
	// GRACE-style BrokerHub (Section 4): each participant registers a
	// hub link under its identity, each supervisor connection is a route
	// opened to its worker by name on a supervisor↔hub link, and the hub
	// binds the pair and relays — re-coalescing batch frames at the relay
	// hop. Faults (DropProb / GarbleProb) then apply to the supervisor↔hub
	// leg, the WAN hop of the GRACE deployment: a quarantined route is
	// recovered by redialing through the hub, whose identity routing
	// re-binds the resumed exchange to the same participant, so verdicts
	// remain byte-identical to a clean direct run.
	Broker bool
	// Routes, when > 0, sets how many concurrent supervisor routes a
	// brokered pipelined run opens — at least one per participant, with any
	// surplus distributed round-robin as extra routes to the same
	// participants, all multiplexed over the supervisor's physical hub
	// link(s); the placement rotation then runs over routes. 0 keeps the
	// default of exactly one route per participant. Requires Broker; values
	// below the participant count are rejected, and so is the double-check
	// scheme, whose replicas need distinct routes to reach distinct workers.
	Routes int
	// DropProb and GarbleProb inject transport faults on every connection
	// (send side, both directions, seeded deterministically from Seed):
	// frames silently vanish or have one bit flipped in transit. Sessions
	// recover through their integrity checks, receive watchdog, and
	// reconnect-and-resume. Each (task, participant) verdict is unaffected
	// by injected faults: resumed exchanges replay their protocol position
	// and restarted ones re-derive their randomness from the task seed.
	DropProb, GarbleProb float64
	// ReconnectLimit bounds replacement connections per participant under
	// fault injection; 0 selects the default (8).
	ReconnectLimit int
	// FaultRecvTimeout is the session receive watchdog that turns silently
	// dropped frames into reconnects; 0 selects the default (2s). It must
	// exceed the worst-case per-task participant compute time.
	FaultRecvTimeout time.Duration
	// CheckpointEvery splits the run into segments of that many tasks; each
	// segment ends with a checkpoint barrier where every participant
	// persists its durable state under CheckpointDir and the supervisor
	// writes its own progress file. 0 runs a single segment. Requires
	// CheckpointDir.
	//
	// Checkpointing — and rolling window commitments, which a run carries
	// when Spec.WindowTasks > 0, verified per link — are incompatible with
	// fault injection, Routes and the double-check scheme; checkpointing also
	// with Blacklist, which is not part of the durable state. Broker is
	// supported.
	CheckpointEvery int
	// CheckpointDir roots the checkpoint files. A run started over a
	// directory holding a matching supervisor checkpoint resumes from it
	// instead of starting over.
	CheckpointDir string
	// KillAfter injects a crash: after that many settled tasks the whole run
	// — supervisor pool, sessions, participants — is torn down mid-segment
	// and restarted from the last durable checkpoint. The final report must
	// be byte-identical to an uninterrupted run's (the checkpoint/restore
	// acceptance criterion). Requires CheckpointEvery > 0 and CheckpointDir.
	KillAfter int
	// KillTarget selects the KillAfter crash's victim.
	// KillTargetSupervisor (or empty) is the classic drill: the whole
	// attempt dies and restarts from the checkpoint files.
	// KillTargetParticipant crashes the participant pool mid-segment while
	// the supervisor survives: participants are rebuilt from their durable
	// checkpoints via RestoreCheckpoint, the supervisor rolls its window
	// ledgers back to the matching barrier from in-memory Snapshot copies,
	// and the aborted segment re-runs. Verdicts and window accounting must
	// match an uninterrupted run's either way; only the supervisor's eval
	// counter differs under a participant crash, because the surviving
	// supervisor honestly pays for re-verifying the aborted segment.
	// Requires KillAfter.
	KillTarget string
}

// KillTarget values for SimConfig: which side the kill drill takes down.
const (
	KillTargetSupervisor  = "supervisor"
	KillTargetParticipant = "participant"
)

// faulty reports whether fault injection is enabled.
func (c SimConfig) faulty() bool { return c.DropProb > 0 || c.GarbleProb > 0 }

func (c SimConfig) participants() int { return c.Honest + c.SemiHonest + c.Malicious }

// window returns the effective session window.
func (c SimConfig) window() int { return max(1, c.PipelineWindow) }

func (c SimConfig) validate() error {
	if err := c.Spec.validate(); err != nil {
		return err
	}
	if c.Workload == "" {
		return fmt.Errorf("%w: no workload", ErrBadConfig)
	}
	if c.TaskSize < 1 || c.Tasks < 1 {
		return fmt.Errorf("%w: need TaskSize >= 1 and Tasks >= 1", ErrBadConfig)
	}
	if c.participants() < 1 {
		return fmt.Errorf("%w: empty participant pool", ErrBadConfig)
	}
	if c.PipelineWindow < 0 {
		return fmt.Errorf("%w: negative pipeline window %d", ErrBadConfig, c.PipelineWindow)
	}
	if c.DropProb < 0 || c.DropProb >= 1 || c.GarbleProb < 0 || c.GarbleProb >= 1 {
		return fmt.Errorf("%w: fault probabilities must lie in [0, 1)", ErrBadConfig)
	}
	if c.Routes < 0 {
		return fmt.Errorf("%w: negative route count %d", ErrBadConfig, c.Routes)
	}
	if c.Routes > 0 {
		if !c.Broker {
			return fmt.Errorf("%w: Routes requires Broker", ErrBadConfig)
		}
		if c.Routes < c.participants() {
			return fmt.Errorf("%w: Routes = %d below the %d-participant pool (need one route each)",
				ErrBadConfig, c.Routes, c.participants())
		}
	}
	if c.ReconnectLimit < 0 {
		return fmt.Errorf("%w: negative reconnect limit %d", ErrBadConfig, c.ReconnectLimit)
	}
	if c.FaultRecvTimeout < 0 {
		return fmt.Errorf("%w: negative fault receive timeout %v", ErrBadConfig, c.FaultRecvTimeout)
	}
	if c.Spec.Kind == SchemeDoubleCheck {
		if c.Replicas != 0 && c.Replicas < 2 {
			return fmt.Errorf("%w: double-check needs >= 2 replicas", ErrBadConfig)
		}
		if c.participants() < c.replicaCount() {
			return fmt.Errorf("%w: double-check needs >= %d participants", ErrBadConfig, c.replicaCount())
		}
		if c.Routes > 0 || c.Blacklist {
			return fmt.Errorf("%w: double-check runs neither extra Routes nor Blacklist", ErrBadConfig)
		}
	}
	if c.CheckpointEvery < 0 || c.KillAfter < 0 {
		return fmt.Errorf("%w: negative checkpoint interval or kill point", ErrBadConfig)
	}
	switch c.KillTarget {
	case "", KillTargetSupervisor, KillTargetParticipant:
	default:
		return fmt.Errorf("%w: unknown KillTarget %q", ErrBadConfig, c.KillTarget)
	}
	if c.KillTarget != "" && c.KillAfter == 0 {
		return fmt.Errorf("%w: KillTarget requires KillAfter", ErrBadConfig)
	}
	if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("%w: CheckpointEvery requires CheckpointDir", ErrBadConfig)
	}
	if c.KillAfter > 0 && (c.CheckpointEvery < 1 || c.CheckpointDir == "") {
		return fmt.Errorf("%w: KillAfter requires CheckpointEvery and CheckpointDir", ErrBadConfig)
	}
	if c.CheckpointDir != "" || c.Spec.WindowTasks > 0 {
		const what = "checkpoints and window commitments (Spec.WindowTasks)"
		if c.Spec.Kind == SchemeDoubleCheck {
			return fmt.Errorf("%w: %s do not support the double-check scheme", ErrBadConfig, what)
		}
		if c.faulty() {
			return fmt.Errorf("%w: %s are incompatible with fault injection", ErrBadConfig, what)
		}
		if c.Routes > 0 {
			return fmt.Errorf("%w: %s are incompatible with extra Routes", ErrBadConfig, what)
		}
	}
	if c.CheckpointDir != "" && c.Blacklist {
		return fmt.Errorf("%w: Blacklist is not checkpointed; it is incompatible with CheckpointDir", ErrBadConfig)
	}
	return nil
}

// replicaCount returns the effective double-check group size.
func (c SimConfig) replicaCount() int {
	if c.Replicas < 2 {
		return 2
	}
	return c.Replicas
}

// ParticipantSummary is one pool member's line in the simulation report.
type ParticipantSummary struct {
	// ID labels the participant; Behavior names its persona.
	ID       string
	Behavior string
	// Cheater records ground truth (semi-honest or malicious).
	Cheater bool
	// Tasks, Accepted, Rejected count assignments and verdicts.
	Tasks, Accepted, Rejected int
	// FEvals counts the participant's evaluations of f.
	FEvals int64
	// BytesSent and BytesRecv are measured at the participant endpoint,
	// summed across every connection (reconnects included).
	BytesSent, BytesRecv int64
	// Blacklisted reports whether scheduling dropped this participant.
	Blacklisted bool
	// Reconnects counts replacement connections dialed to this participant
	// after transport faults quarantined earlier ones.
	Reconnects int
}

// TaskVerdict pairs a task with the supervisor's ruling on it — the
// authoritative per-task record (a participant may never learn its verdict
// when the delivery frame is lost to a fault; the supervisor's ruling
// stands regardless).
type TaskVerdict struct {
	TaskID  uint64
	Verdict Verdict
}

// SimReport aggregates a simulation run.
type SimReport struct {
	// Scheme names the verification scheme used.
	Scheme string
	// PipelineWindow is the session window the run used (at least 1).
	PipelineWindow int
	// Participants summarizes each pool member.
	Participants []ParticipantSummary
	// TaskVerdicts records the supervisor's ruling per executed task, in
	// task order (replicas repeat the ID).
	TaskVerdicts []TaskVerdict
	// Reports collects every screened result received by the supervisor.
	Reports []Report
	// TasksAssigned counts task executions (replicas count individually).
	TasksAssigned int
	// CheatersDetected counts cheating participants with >= 1 rejection;
	// CheatersTotal counts cheating participants in the pool.
	CheatersDetected, CheatersTotal int
	// HonestAccused counts honest participants with >= 1 rejection —
	// the false positives.
	HonestAccused int
	// SupervisorBytesSent/Recv total the supervisor-side traffic as the
	// connections counted it, batch framing included.
	SupervisorBytesSent, SupervisorBytesRecv int64
	// TaskBytesSent/Recv total the task-tagged bytes of every settled task
	// execution (Σ TaskOutcome.BytesSent/BytesRecv): what the scheme's
	// messages cost on the wire, independent of how they were framed.
	TaskBytesSent, TaskBytesRecv int64
	// SupervisorEvals counts supervisor-side f evaluations spent verifying.
	SupervisorEvals int64
	// Broker is the hub's final accounting when the run was relayed through
	// a BrokerHub (nil otherwise). A clean brokered run shows every route
	// sharing one supervisor link; a faulty run adds one link per
	// quarantine-and-redial.
	Broker *HubSnapshot
	// WindowsSettled and WindowViolations total the rolling-window
	// commitment verification of a run with Spec.WindowTasks > 0:
	// windows whose sampled leaves all verified against the committed
	// per-task digests, and windows that failed verification. Restarted
	// runs carry the counts across the restore.
	WindowsSettled, WindowViolations uint64
	// WindowsPending counts decided tasks not yet covered by a full window
	// commitment when the run shut down (the ragged tail of the stream).
	WindowsPending int
}

// DetectionRate is CheatersDetected / CheatersTotal (1 when no cheaters).
func (r *SimReport) DetectionRate() float64 {
	if r.CheatersTotal == 0 {
		return 1
	}
	return float64(r.CheatersDetected) / float64(r.CheatersTotal)
}

// simWorker pairs a participant with its connection endpoints. A worker
// accumulates connections — one dial per segment and extra route, plus one
// per reconnect under fault injection — each serving on its own goroutine.
// Summaries aggregate traffic across all of them.
type simWorker struct {
	participant *Participant
	idx         int
	cheater     bool
	blacklisted bool
	// accepted and rejected count the supervisor's rulings on the worker's
	// double-check replicas (see rule).
	accepted, rejected int
	// hub, when set, routes every dial through the broker instead of a
	// direct pipe; muxes then owns the supervisor-side physical link(s) the
	// routes are multiplexed over.
	hub   *BrokerHub
	muxes *muxManager

	mu        sync.Mutex
	supConns  []transport.Conn // supervisor-side endpoints, in dial order
	partConns []transport.Conn // participant-side endpoints, in dial order
	serveErrs []chan error
	// reconnects counts dials that replaced a quarantined connection.
	reconnects int
}

// muxManager owns the supervisor-side physical hub links of a brokered run.
// A clean run shares ONE physical link — all routes riding one
// reader/writer pair at each end — while a faulty run opens one link per
// dial, so each dial keeps its own deterministic fault plan and its own
// quarantine-and-redial lifecycle.
type muxManager struct {
	hub *BrokerHub

	mu     sync.Mutex
	shared *SupervisorMux
	muxes  []*SupervisorMux
}

func newMuxManager(hub *BrokerHub) *muxManager { return &muxManager{hub: hub} }

// sharedMux lazily dials the run's single clean physical link.
func (mm *muxManager) sharedMux() *SupervisorMux {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.shared == nil {
		supConn, hubUp := transport.Pipe(transport.WithBuffer(8))
		go func() { _ = mm.hub.Attach(hubUp) }()
		m, err := OpenMux(supConn, "supervisor")
		if err != nil {
			_ = supConn.Close()
			return nil
		}
		mm.shared = m
		mm.muxes = append(mm.muxes, m)
	}
	return mm.shared
}

// openRoute opens one supervisor route to the named worker. Clean runs open
// it on the shared link; faulty runs dial a fresh link wrapped with the
// (worker, attempt)-seeded fault plan on both ends, which keeps faults and
// reconnect budgets deterministic per dial.
// Dial-time failures yield a dead connection — the session layer's
// quarantine machinery treats it like any lost link and redials.
func (mm *muxManager) openRoute(cfg SimConfig, w *simWorker, attempt int, worker string) transport.Conn {
	if !cfg.faulty() {
		if m := mm.sharedMux(); m != nil {
			if conn, err := m.OpenRoute(worker); err == nil {
				return conn
			}
		}
		return deadConn()
	}
	supConn, hubUp := transport.Pipe(transport.WithBuffer(8))
	sup := transport.WithFaults(supConn, transport.FaultPlan{
		DropProb:   cfg.DropProb,
		GarbleProb: cfg.GarbleProb,
		Seed:       faultSeed(cfg.Seed, w.idx, attempt, 0),
	})
	hubSide := transport.WithFaults(hubUp, transport.FaultPlan{
		DropProb:   cfg.DropProb,
		GarbleProb: cfg.GarbleProb,
		Seed:       faultSeed(cfg.Seed, w.idx, attempt, 1),
	})
	// The hub-side attach runs on its own goroutine: a dropped or garbled
	// mux hello legitimately strands the handshake until the hub's bind
	// watchdog (or the supervisor's receive watchdog) kills the link.
	go func() { _ = mm.hub.Attach(hubSide) }()
	m, err := OpenMux(sup, fmt.Sprintf("sup-%s-%d", worker, attempt))
	if err != nil {
		_ = sup.Close()
		return deadConn()
	}
	mm.mu.Lock()
	mm.muxes = append(mm.muxes, m)
	mm.mu.Unlock()
	conn, err := m.OpenRoute(worker)
	if err != nil {
		return deadConn()
	}
	return conn
}

// close tears down every physical link the run opened, joining the mux
// readers so no goroutine outlives the simulation.
func (mm *muxManager) close() {
	mm.mu.Lock()
	muxes := mm.muxes
	mm.muxes, mm.shared = nil, nil
	mm.mu.Unlock()
	for _, m := range muxes {
		_ = m.Close()
	}
}

// deadConn returns a connection that is already closed, for dial paths that
// failed before producing a usable endpoint.
func deadConn() transport.Conn {
	a, b := transport.Pipe()
	_ = b.Close()
	_ = a.Close()
	return a
}

// faultSeed derives a distinct, reproducible fault-plan seed per (run,
// worker, dial, direction).
func faultSeed(seed uint64, worker, dial, direction int) int64 {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[:8], seed)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(worker))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(dial))
	binary.LittleEndian.PutUint64(buf[24:], uint64(direction))
	sum := shortsha.Sum256(buf[:])
	return int64(binary.LittleEndian.Uint64(sum[:8]))
}

// dial opens a fresh connection to the worker's participant — direct, or
// routed through the broker hub when the run is brokered — wraps the
// supervisor-facing leg with the configured fault plan, and starts a serve
// goroutine on the participant side. It returns the supervisor-side
// endpoint.
func (w *simWorker) dial(cfg SimConfig) transport.Conn {
	if w.hub != nil {
		return w.dialBrokered(cfg)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	var sup, part transport.Conn = supConn, partConn
	w.mu.Lock()
	attempt := len(w.supConns)
	w.mu.Unlock()
	if cfg.faulty() {
		sup = transport.WithFaults(sup, transport.FaultPlan{
			DropProb:   cfg.DropProb,
			GarbleProb: cfg.GarbleProb,
			Seed:       faultSeed(cfg.Seed, w.idx, attempt, 0),
		})
		part = transport.WithFaults(part, transport.FaultPlan{
			DropProb:   cfg.DropProb,
			GarbleProb: cfg.GarbleProb,
			Seed:       faultSeed(cfg.Seed, w.idx, attempt, 1),
		})
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- w.participant.Serve(part) }()
	w.mu.Lock()
	w.supConns = append(w.supConns, sup)
	w.partConns = append(w.partConns, part)
	w.serveErrs = append(w.serveErrs, serveErr)
	w.mu.Unlock()
	return sup
}

// dialBrokered opens a fresh identity-routed path through the broker hub:
// a clean hub↔participant link registered under the participant's ID (the
// LAN leg of the GRACE deployment) and a supervisor route multiplexed over
// a physical supervisor↔hub link — the WAN leg, where the fault plan
// applies — whose open hello asks the hub to bind it to that worker.
// Registration is synchronous, so the subsequent bind never waits. It
// returns the supervisor-side route endpoint.
func (w *simWorker) dialBrokered(cfg SimConfig) transport.Conn {
	name := w.participant.ID()
	hubDown, partConn := transport.Pipe(transport.WithBuffer(8))
	_ = HelloWorker(partConn, name)
	_ = w.hub.Attach(hubDown)
	serveErr := make(chan error, 1)
	go func() { serveErr <- w.participant.Serve(partConn) }()

	w.mu.Lock()
	attempt := len(w.supConns)
	w.mu.Unlock()
	sup := w.muxes.openRoute(cfg, w, attempt, name)
	w.mu.Lock()
	w.supConns = append(w.supConns, sup)
	w.partConns = append(w.partConns, partConn)
	w.serveErrs = append(w.serveErrs, serveErr)
	w.mu.Unlock()
	return sup
}

// crash abruptly severs every connection the worker holds, both ends, the
// way a process death would: serve loops exit with transport errors rather
// than a clean EOF, and any in-flight exchange is lost. The worker's durable
// checkpoint files are untouched — that is what a restarted participant
// recovers from.
func (w *simWorker) crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range w.partConns {
		_ = c.Close()
	}
	for _, c := range w.supConns {
		_ = c.Close()
	}
}

// rule counts one supervisor ruling on a replica the worker ran: a
// double-check participant is sent only a receipt, so the report's verdict
// columns come from here.
//
//gridlint:credit the simulator's per-worker tally of double-check rulings
func (w *simWorker) rule(v Verdict) {
	if v.Accepted {
		w.accepted++
	} else {
		w.rejected++
	}
}

// dials reports how many connections were opened to this participant.
func (w *simWorker) dials() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.supConns)
}

// trafficTotals sums the byte counters across every connection the worker
// ever held, at the given side's endpoints.
func (w *simWorker) trafficTotals(participantSide bool) (sent, recv int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	conns := w.supConns
	if participantSide {
		conns = w.partConns
	}
	for _, c := range conns {
		sent += c.Stats().BytesSent()
		recv += c.Stats().BytesRecv()
	}
	return sent, recv
}

// awaitBinds waits until the hub has bound every route dialed to the worker
// so far. The hub parks only ONE registration per identity, and every dial
// re-registers the worker — so before dialing an identity again its earlier
// routes must have bound and consumed their registrations, or the new one
// would replace (and close) a parked link and starve a pending route until
// the bind timeout. A bind that never comes surfaces as a dead route, not a
// hang.
func (w *simWorker) awaitBinds() {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w.hub.binds(w.participant.ID()) >= int64(w.dials()) {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// RunSim executes the configured population run over in-memory pipes and
// returns the aggregated report. Tasks are placed round-robin over the
// (non-blacklisted) pool — double-check on groups of consecutive workers —
// and run as one SupervisorPool.RunTaskSource stream per checkpoint
// segment. If the configured kill fires, the run restarts from the last
// durable checkpoint.
func RunSim(cfg SimConfig) (*SimReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	supCfg := SupervisorConfig{
		Spec:              cfg.Spec,
		Seed:              int64(cfg.Seed) ^ 0x5c4ed,
		CrossCheckReports: cfg.CrossCheckReports,
	}
	killAfter := cfg.KillAfter
	for {
		report, killed, err := runSimAttempt(cfg, supCfg, killAfter)
		if err != nil {
			return nil, err
		}
		if !killed {
			return report, nil
		}
		killAfter = 0 // the crash happened; the restart runs to completion
	}
}

// runSimAttempt executes one attempt: restore, run segments, and either
// finish (killed == false, report set) or die at the kill point
// (killed == true) leaving only the checkpoint files behind. A run without
// checkpoints is a single segment of a single attempt.
//
// Recovery discards, never reconciles: a restart reloads BOTH sides from
// their files (in-memory state of the killed attempt is dropped on the
// floor), and a mid-segment kill is only triggered while at least one
// segment task is unsettled — the drain barrier cannot have started, so
// participant files provably sit at the same sequence as the supervisor's.
//
//gridlint:credit report assembly sums per-worker traffic totals once, at shutdown
func runSimAttempt(cfg SimConfig, supCfg SupervisorConfig, killAfter int) (report *SimReport, killed bool, err error) {
	st, err := loadSimState(cfg)
	if err != nil {
		return nil, false, err
	}

	var hub *BrokerHub
	var muxes *muxManager
	if cfg.Broker {
		hub = NewBrokerHub()
		muxes = newMuxManager(hub)
	}
	workers, err := buildPool(cfg, hub, muxes)
	// Closing the hub first tears down every route (and any orphaned
	// registered link a faulty handshake left behind), so the participants'
	// serve loops — which shutdownPool joins — always observe EOF; the mux
	// links close next, joining their readers before the serve joins.
	cleanup := func() error {
		if hub != nil {
			_ = hub.Close()
		}
		if muxes != nil {
			muxes.close()
		}
		return shutdownPool(workers)
	}
	fail := func(ferr error) (*SimReport, bool, error) {
		_ = cleanup()
		return nil, false, ferr
	}
	if err != nil {
		return fail(err)
	}
	if rerr := restorePool(workers, st.seq); rerr != nil {
		return fail(rerr)
	}

	window := cfg.window()
	pool, err := NewSupervisorPool(supCfg, cfg.participants()*window)
	if err != nil {
		return fail(err)
	}
	evalsBase := st.supEvals
	supSentBase, supRecvBase := st.supSent, st.supRecv
	partSentBase := append([]int64(nil), st.partSent...)
	partRecvBase := append([]int64(nil), st.partRecv...)
	// syncTotals folds the attempt's live connection counters onto the
	// restored bases, making st's totals cover the whole logical run.
	syncTotals := func() {
		st.supEvals = evalsBase + pool.VerifyEvals()
		var sSent, sRecv int64
		for i, w := range workers {
			ps, pr := w.trafficTotals(true)
			st.partSent[i] = partSentBase[i] + ps
			st.partRecv[i] = partRecvBase[i] + pr
			ws, wr := w.trafficTotals(false)
			sSent += ws
			sRecv += wr
		}
		st.supSent = supSentBase + sSent
		st.supRecv = supRecvBase + sRecv
	}

	// byConn maps every connection — segment dials, extra routes, fault-mode
	// redials — to its worker; mu guards it against concurrent redials.
	var mu sync.Mutex
	byConn := make(map[transport.Conn]*simWorker)
	dial := func(w *simWorker) transport.Conn {
		conn := w.dial(cfg)
		mu.Lock()
		byConn[conn] = w
		mu.Unlock()
		return conn
	}
	workerOf := func(conn transport.Conn) *simWorker {
		mu.Lock()
		defer mu.Unlock()
		return byConn[conn]
	}

	// The stream options that do not change from segment to segment.
	perTask := 1
	runOpts := []StreamOption{WithPinnedPlacement()}
	if cfg.Spec.Kind == SchemeDoubleCheck {
		perTask = cfg.replicaCount()
		runOpts = append(runOpts, WithReplicas(perTask))
	}
	if cfg.Blacklist {
		runOpts = append(runOpts, withRetireOnReject())
	}
	if cfg.faulty() {
		reconnects := cfg.ReconnectLimit
		if reconnects == 0 {
			reconnects = 8
		}
		recvTimeout := cfg.FaultRecvTimeout
		if recvTimeout == 0 {
			recvTimeout = 2 * time.Second
		}
		runOpts = append(runOpts,
			WithStreamRecvTimeout(recvTimeout),
			WithMaxReconnects(reconnects),
			WithRedial(func(old transport.Conn) (transport.Conn, error) {
				w := workerOf(old)
				if w == nil {
					return nil, fmt.Errorf("%w: redial for unknown connection", ErrBadConfig)
				}
				conn := dial(w)
				w.mu.Lock()
				w.reconnects++
				w.mu.Unlock()
				return conn, nil
			}))
	}

	total := cfg.Tasks
	segSize := cfg.CheckpointEvery
	if segSize <= 0 {
		segSize = total
	}
	settled := st.nextTask

	// A participant-crash drill keeps the supervisor alive across the kill,
	// so the attempt must be able to roll its OWN window ledgers back to the
	// last durable barrier: snapshot them (via the exported codec) whenever
	// st.seq advances, and restore from the copies on recovery.
	participantKill := cfg.KillTarget == KillTargetParticipant && killAfter > 0
	var ledgerSnaps [][]byte
	snapLedgers := func() {
		if !participantKill || st.ledgers == nil {
			return
		}
		ledgerSnaps = make([][]byte, len(st.ledgers))
		for i, led := range st.ledgers {
			ledgerSnaps[i] = led.Snapshot()
		}
	}
	snapLedgers()
	// recoverParticipants rebuilds the participant pool from its durable
	// checkpoint files after a crash. The aborted segment left every
	// participant's in-memory commitment chain ahead of the barrier, so the
	// whole pool rolls back together — exactly like a deployment restarting
	// its worker processes — while the surviving supervisor only rewinds its
	// ledgers. Byte counters rebase onto the checkpointed totals (the dead
	// pool's partial-segment traffic died with it); the eval base is NOT
	// rebased, because the supervisor genuinely re-pays verification of the
	// re-run tasks.
	recoverParticipants := func() error {
		_ = shutdownPool(workers) // serve errors from the crash are the point
		var rerr error
		if workers, rerr = buildPool(cfg, hub, muxes); rerr != nil {
			workers = nil
			return rerr
		}
		if rerr := restorePool(workers, st.seq); rerr != nil {
			return rerr
		}
		for i := range st.ledgers {
			led, rerr := RestoreWindowLedger(cfg.Spec, ledgerSnaps[i])
			if rerr != nil {
				return rerr
			}
			st.ledgers[i] = led
		}
		partSentBase = append(partSentBase[:0], st.partSent...)
		partRecvBase = append(partRecvBase[:0], st.partRecv...)
		supSentBase, supRecvBase = st.supSent, st.supRecv
		return nil
	}

	for st.nextTask < total {
		from := st.nextTask
		to := min(from+segSize, total)
		// Each segment runs over fresh connections: a restarted attempt could
		// not reuse a dead process's sockets anyway. Routes beyond
		// one-per-participant widen the fan-out round-robin — each another
		// multiplexed route, plus a fresh participant-side serve link. Faulty
		// runs skip the bind wait: their hellos may legitimately be lost, and
		// the stream's redial machinery recovers.
		conns := make([]transport.Conn, 0, max(len(workers), cfg.Routes))
		for _, w := range workers {
			conns = append(conns, dial(w))
		}
		for j := len(workers); j < cfg.Routes; j++ {
			w := workers[j%len(workers)]
			if !cfg.faulty() {
				w.awaitBinds()
			}
			conns = append(conns, dial(w))
		}

		// The source walks absolute task indices (WithSourceBase) so placement
		// pairs task i with worker i mod n regardless of where the segment
		// boundaries fall — a checkpointed run pairs tasks and participants
		// exactly like an unsegmented one.
		end := uint64(to)
		source := func(i uint64) (Task, bool) {
			if i >= end {
				return Task{}, false
			}
			return taskFor(cfg, int(i)), true
		}
		opts := append(runOpts[:len(runOpts):len(runOpts)], WithSourceBase(uint64(from)))
		if st.ledgers != nil {
			opts = append(opts, WithWindowSettle(st.ledgers))
		}
		seq := uint64(to)
		if cfg.CheckpointDir != "" {
			opts = append(opts, WithDrainCheckpoint(seq))
		}

		ctx, cancel := context.WithCancel(context.Background())
		stream, serr := pool.RunTaskSource(ctx, conns, source, window, opts...)
		if serr != nil {
			cancel()
			return fail(serr)
		}
		segCount := 0
		for so := range stream.Outcomes() {
			o := so.Outcome
			st.settled[outcomeKey{o.Task.ID, o.Replica}] = settledTask{o.Verdict, o.Reports, o.BytesSent, o.BytesRecv}
			if perTask > 1 {
				workerOf(so.Conn).rule(o.Verdict)
			}
			if cfg.Blacklist && !o.Verdict.Accepted {
				// The stream has retired the connection already
				// (withRetireOnReject); this is the report's copy.
				workerOf(so.Conn).blacklisted = true
			}
			segCount++
			settled++
			// Kill only while at least one segment task is still unsettled:
			// the outcome channel is unbuffered, so an unsettled task means a
			// live worker, meaning the drain barrier has not started and
			// cannot leave participant files ahead of the coordinator's. A
			// kill point landing on a segment boundary fires after the
			// checkpoint below instead.
			if killAfter > 0 && settled >= killAfter && settled < to && !killed {
				killed = true
				if participantKill {
					// The victim dies first, abruptly; the cancel then reaps
					// the segment the dead participant can no longer finish.
					workers[0].crash()
				}
				cancel()
			}
		}
		streamErr := stream.Err()
		cancel()
		if killed {
			if !participantKill {
				_ = cleanup() // serve errors from the abrupt teardown are the point
				return nil, true, nil
			}
			if rerr := recoverParticipants(); rerr != nil {
				return fail(rerr)
			}
			killed = false
			killAfter = 0
			settled = st.nextTask
			continue
		}
		if streamErr != nil {
			return fail(streamErr)
		}
		if want := (to - from) * perTask; segCount != want {
			// A shortfall is legitimate only when blacklisting left too few
			// participants to place another task; anything else means
			// connections were lost beyond the reconnect budget, which must
			// surface as a failure rather than a silently short report.
			eligible := 0
			for _, w := range workers {
				if !w.blacklisted {
					eligible++
				}
			}
			if cfg.Blacklist && eligible < perTask {
				break
			}
			return fail(fmt.Errorf("grid: segment [%d,%d) completed %d of %d task executions: participant connections lost beyond recovery",
				from, to, segCount, want))
		}
		st.nextTask = to
		st.seq = seq
		if cfg.CheckpointDir != "" {
			syncTotals()
			if err := st.save(cfg); err != nil {
				return fail(err)
			}
			snapLedgers()
		}
		if killAfter > 0 && settled >= killAfter {
			if participantKill {
				// A kill point on a segment boundary fires after the barrier:
				// the pool dies freshly checkpointed and restarts from it.
				workers[0].crash()
				if rerr := recoverParticipants(); rerr != nil {
					return fail(rerr)
				}
				killAfter = 0
				continue
			}
			_ = cleanup()
			return nil, true, nil
		}
	}

	if err := cleanup(); err != nil {
		return nil, false, err
	}
	syncTotals()
	if simFinished != nil {
		simFinished(workers)
	}

	report = &SimReport{Scheme: cfg.Spec.Kind.String(), PipelineWindow: window}
	if hub != nil {
		// Close blocked until every relay pump exited, so these are final.
		// Only the final attempt's hub is reported: a restart rebuilds the
		// broker, so relay counters cover the post-restore portion of the run
		// (unlike the checkpointed task and traffic totals).
		snap := hub.Snapshot()
		report.Broker = &snap
	}

	// Record in (task, replica) order, so the report layout does not depend
	// on completion interleaving.
	keys := make([]outcomeKey, 0, len(st.settled))
	for k := range st.settled {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].task != keys[j].task {
			return keys[i].task < keys[j].task
		}
		return keys[i].replica < keys[j].replica
	})
	report.TasksAssigned = len(keys)
	for _, k := range keys {
		rec := st.settled[k]
		report.TaskVerdicts = append(report.TaskVerdicts, TaskVerdict{TaskID: k.task, Verdict: rec.verdict})
		report.Reports = append(report.Reports, rec.reports...)
		report.TaskBytesSent += rec.sent
		report.TaskBytesRecv += rec.recv
	}
	for i, w := range workers {
		totals := w.participant.Totals()
		if perTask > 1 {
			totals.Accepted, totals.Rejected = w.accepted, w.rejected
		}
		report.Participants = append(report.Participants, ParticipantSummary{
			ID:          w.participant.ID(),
			Behavior:    totals.Behavior,
			Cheater:     w.cheater,
			Tasks:       totals.Tasks,
			Accepted:    totals.Accepted,
			Rejected:    totals.Rejected,
			FEvals:      totals.FEvals,
			BytesSent:   st.partSent[i],
			BytesRecv:   st.partRecv[i],
			Blacklisted: w.blacklisted,
			Reconnects:  w.reconnects,
		})
		if w.cheater {
			report.CheatersTotal++
			if totals.Rejected > 0 {
				report.CheatersDetected++
			}
		} else if totals.Rejected > 0 {
			report.HonestAccused++
		}
	}
	report.SupervisorBytesSent = st.supSent
	report.SupervisorBytesRecv = st.supRecv
	report.SupervisorEvals = st.supEvals
	for _, led := range st.ledgers {
		s := led.Stats()
		report.WindowsSettled += s.Settled
		report.WindowViolations += s.Violations
		report.WindowsPending += s.Pending
	}
	return report, false, nil
}

// simFinished, when set (tests only), is handed the pool of a finished run
// before its report is assembled.
var simFinished func(workers []*simWorker)

// buildPool constructs the participant pool — semi-honest cheaters first,
// then malicious, then honest workers. Connections are dialed per segment;
// a non-nil hub routes every one through the broker as a multiplexed route
// on muxes.
func buildPool(cfg SimConfig, hub *BrokerHub, muxes *muxManager) ([]*simWorker, error) {
	var workers []*simWorker
	var popts []ParticipantOption
	if cfg.CheckpointDir != "" {
		popts = append(popts, WithCheckpointDir(cfg.CheckpointDir))
	}
	add := func(id string, factory ProducerFactory, cheater bool) error {
		p, err := NewParticipant(id, factory, popts...)
		if err != nil {
			return err
		}
		workers = append(workers, &simWorker{participant: p, idx: len(workers), cheater: cheater, hub: hub, muxes: muxes})
		return nil
	}
	for i := 0; i < cfg.SemiHonest; i++ {
		seed := cfg.Seed*1000 + uint64(i)
		if err := add(fmt.Sprintf("semihonest-%d", i),
			SemiHonestFactory(cfg.HonestyRatio, seed), true); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Malicious; i++ {
		seed := cfg.Seed*2000 + uint64(i)
		if err := add(fmt.Sprintf("malicious-%d", i),
			MaliciousFactory(cfg.CorruptProb, seed), true); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Honest; i++ {
		if err := add(fmt.Sprintf("honest-%d", i), HonestFactory, false); err != nil {
			return nil, err
		}
	}
	return workers, nil
}

// taskFor builds the taskNum-th domain window of the run.
func taskFor(cfg SimConfig, taskNum int) Task {
	return Task{
		ID:       uint64(taskNum),
		Start:    uint64(taskNum) * uint64(cfg.TaskSize),
		N:        uint64(cfg.TaskSize),
		Workload: cfg.Workload,
		Seed:     cfg.Seed,
	}
}

// shutdownPool closes every supervisor-side connection a worker ever held
// and waits for all its serve goroutines to exit, returning the first serve
// error.
func shutdownPool(workers []*simWorker) error {
	for _, w := range workers {
		w.mu.Lock()
		for _, c := range w.supConns {
			_ = c.Close()
		}
		w.mu.Unlock()
	}
	var firstErr error
	for _, w := range workers {
		w.mu.Lock()
		serveErrs := append([]chan error(nil), w.serveErrs...)
		w.mu.Unlock()
		for _, ch := range serveErrs {
			if err := <-ch; err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
