// Package uncheatgrid is a Go implementation of "Uncheatable Grid
// Computing" (Du, Jia, Mangal, Murugesan; ICDCS 2004): the Commitment-Based
// Sampling (CBS) scheme that lets a grid-computing supervisor verify — with
// O(m log n) communication — that a participant really evaluated f on all n
// assigned inputs, plus the non-interactive variant, the storage-bounded
// prover, the baselines the paper compares against, and a full grid
// simulation harness.
//
// # Quick start
//
// The participant commits to its results with a Merkle tree, the supervisor
// challenges m random samples, and the participant proves — with one Merkle
// multiproof for all of them — that each sampled result was in the committed
// tree:
//
//	f := uncheatgrid.NewSyntheticWorkload(1, 4, 64)
//	var buf []byte // prover and check copy or compare each value: one buffer serves them all
//	eval := func(i uint64) []byte { buf = f.AppendEval(buf[:0], i); return buf }
//	prover, _ := uncheatgrid.NewProver(1024, eval)
//	verifier, _ := uncheatgrid.NewVerifier(prover.Commitment())
//	challenge, _ := verifier.Challenge(33) // m per Eq. 3 at ε=1e-4, r=0.5, q=0.5
//	response, _ := prover.Respond(challenge.Indices)
//	err := verifier.Verify(challenge, response, uncheatgrid.RecomputeCheck(eval))
//	// err == nil ⇔ the participant is (with probability ≥ 1-1e-4) honest.
//
// Higher-level entry points: RunSim simulates whole populations of honest
// and cheating participants under any scheme; the cmd/figures binary
// regenerates every figure and table of the paper.
package uncheatgrid

import (
	"uncheatgrid/internal/analysis"
	"uncheatgrid/internal/baseline"
	"uncheatgrid/internal/cheat"
	"uncheatgrid/internal/core"
	"uncheatgrid/internal/grid"
	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// ---- CBS protocol (the paper's contribution, Sections 3-4) ----

type (
	// Prover is the participant side of (NI-)CBS: it commits to results
	// and answers sample challenges.
	Prover = core.Prover
	// Verifier is the supervisor side of (NI-)CBS.
	Verifier = core.Verifier
	// Commitment is the Step 1 message (Merkle root + domain size).
	Commitment = core.Commitment
	// Challenge is the Step 2 message (sample indices).
	Challenge = core.Challenge
	// Response is the Step 3 message: one Merkle multiproof covering every
	// challenged sample.
	Response = core.Response
	// CheckFunc validates a claimed f(x) on the supervisor side.
	CheckFunc = core.CheckFunc
	// CheatError reports the convicting sample of a failed verification.
	CheatError = core.CheatError
	// ProtocolOption customizes provers and verifiers.
	ProtocolOption = core.Option
)

// Protocol constructors and helpers re-exported from the core scheme.
var (
	// NewProver builds the participant's commitment over n claimed results.
	NewProver = core.NewProver
	// NewVerifier accepts a commitment and audits responses against it.
	NewVerifier = core.NewVerifier
	// RecomputeCheck builds a CheckFunc that recomputes f and compares.
	RecomputeCheck = core.RecomputeCheck
	// AcceptAnyOutput skips the output check (commitment audit only).
	AcceptAnyOutput CheckFunc = core.AcceptAnyOutput
	// WithSubtreeHeight selects the Section 3.3 storage-bounded prover.
	WithSubtreeHeight = core.WithSubtreeHeight
	// WithRand pins the verifier's challenge randomness.
	WithRand = core.WithRand
	// WithTreeOptions forwards Merkle-layer options (hash choice).
	WithTreeOptions = core.WithTreeOptions
)

// Sentinel errors of the protocol layer.
var (
	// ErrWrongOutput marks a sample whose claimed f(x) is incorrect.
	ErrWrongOutput = core.ErrWrongOutput
	// ErrCommitmentMismatch marks a proof inconsistent with the committed
	// root — the Theorem 2 conviction.
	ErrCommitmentMismatch = core.ErrCommitmentMismatch
)

// ---- Non-interactive sample derivation (Section 4, Eq. 4-5) ----

type (
	// HashChain is the iterated one-way function g of NI-CBS.
	HashChain = hashchain.Chain
)

// NewHashChain constructs g = hash^iterations; both sides of the NI-CBS
// exchange must agree on the iteration count.
var NewHashChain = hashchain.New

// ---- Analysis (Eq. 2, Eq. 3, Section 3.3, Eq. 5) ----

var (
	// CheatSuccessProb is Eq. 2: (r + (1-r)q)^m.
	CheatSuccessProb = analysis.CheatSuccessProb
	// DetectionProb is 1 - CheatSuccessProb.
	DetectionProb = analysis.DetectionProb
	// RequiredSamples is Eq. 3: the minimum m for a target ε (Fig. 2).
	RequiredSamples = analysis.RequiredSamples
	// RCO is the Section 3.3 relative computation overhead 2m/S.
	RCO = analysis.RCO
	// ExpectedRerollAttempts is the Section 4.2 attack effort 1/r^m.
	ExpectedRerollAttempts = analysis.ExpectedRerollAttempts
	// RequiredChainIterations sizes g to satisfy Eq. 5.
	RequiredChainIterations = analysis.RequiredChainIterations
	// RerollAttackCost evaluates both sides of Eq. 5.
	RerollAttackCost = analysis.RerollAttackCost
)

// ---- Workloads (the computations f and screeners S, Section 2.1) ----

type (
	// Workload is the computation f assigned to participants.
	Workload = workload.Function
	// Screener is the report filter S of Section 2.1.
	Screener = workload.Screener
	// WorkloadCounter counts evaluations of f. Its tally is a plain field:
	// evaluate a counted workload from one goroutine at a time. A prover
	// or tree built with merkle.WithParallelism calls its leaf function
	// concurrently, so materialise the values serially first.
	WorkloadCounter = workload.Counter
)

// Workload constructors and the registry.
var (
	// NewWorkload instantiates a registered workload by name.
	NewWorkload = workload.New
	// WorkloadNames lists the registered workloads.
	WorkloadNames = workload.Names
	// CountWorkload wraps a workload with an evaluation counter (not safe
	// for concurrent use, see WorkloadCounter).
	CountWorkload = workload.Count
	// NewPasswordWorkload is the brute-force keyspace search (Section 3).
	NewPasswordWorkload = workload.NewPassword
	// NewDrugScreenWorkload is the molecule-screening simulation.
	NewDrugScreenWorkload = workload.NewDrugScreen
	// NewSignalWorkload is the SETI-style spectral search.
	NewSignalWorkload = workload.NewSignal
	// NewMersenneWorkload is the GIMPS-style Lucas-Lehmer test (q = 0.5).
	NewMersenneWorkload = workload.NewMersenne
	// NewFactorWorkload is the cheaply-verifiable factoring workload.
	NewFactorWorkload = workload.NewFactor
	// NewSyntheticWorkload has tunable cost and output width (q dial).
	NewSyntheticWorkload = workload.NewSynthetic
)

// ---- Cheating models (Section 2.2) ----

type (
	// Producer is a participant behaviour (honest or cheating).
	Producer = cheat.Producer
	// RerollConfig parameterizes the Section 4.2 NI-CBS attack.
	RerollConfig = cheat.RerollConfig
	// RerollResult reports a mounted re-rolling attack.
	RerollResult = cheat.RerollResult
)

// Behaviour constructors and the NI-CBS attack.
var (
	// NewHonest is the r = 1 behaviour.
	NewHonest = cheat.NewHonest
	// NewSemiHonest cheats with honesty ratio r.
	NewSemiHonest = cheat.NewSemiHonest
	// NewMalicious corrupts screener reports.
	NewMalicious = cheat.NewMalicious
	// Reroll mounts the Section 4.2 re-rolling attack.
	Reroll = cheat.Reroll
)

// ---- Baselines (Section 1, 1.1) ----

type (
	// NaiveSampling re-checks samples of a full upload.
	NaiveSampling = baseline.NaiveSampling
	// DoubleCheck compares redundant replicas.
	DoubleCheck = baseline.DoubleCheck
	// RingerSet is the Golle-Mironov supervisor state.
	RingerSet = baseline.RingerSet
)

// Baseline constructors.
var (
	// NewNaiveSampling builds the naive sampler.
	NewNaiveSampling = baseline.NewNaiveSampling
	// NewDoubleCheck builds the redundancy comparator.
	NewDoubleCheck = baseline.NewDoubleCheck
	// PlantRingers precomputes ringer images over a domain.
	PlantRingers = baseline.PlantRingers
)

// ---- Grid simulation (Section 2.1, Section 4 GRACE) ----

type (
	// Supervisor organizes tasks and verification.
	Supervisor = grid.Supervisor
	// SupervisorConfig configures a supervisor.
	SupervisorConfig = grid.SupervisorConfig
	// SupervisorPool verifies many participants concurrently with bounded
	// workers (RunTaskSource); the verdict of a (task, participant) pair is
	// reproducible for equal seeds regardless of scheduling.
	SupervisorPool = grid.SupervisorPool
	// Session is the task exchange on one connection: up to `window` tasks
	// in flight, messages tagged by task ID and coalesced into batched
	// frames; window 1 runs one exchange at a time. Open one with
	// Supervisor.OpenSession.
	Session = grid.Session
	// TaskStream is the handle of a streaming pooled run
	// (SupervisorPool.RunTaskSource): outcomes arrive as tasks complete.
	TaskStream = grid.TaskStream
	// StreamedOutcome pairs a streamed outcome with its connection.
	StreamedOutcome = grid.StreamedOutcome
	// StreamOption configures streaming pooled runs.
	StreamOption = grid.StreamOption
	// TaskSource feeds a streaming run one task at a time, consulted lazily
	// under bounded look-ahead — a generator-backed source can describe runs
	// far larger than memory (SupervisorPool.RunTaskSource).
	TaskSource = grid.TaskSource
	// WindowLedger verifies one participant link's rolling hash-chained
	// window commitments during a streaming run.
	WindowLedger = grid.WindowLedger
	// WindowStats summarizes a window ledger: settled windows, violations,
	// and tasks still pending in the open window.
	WindowStats = grid.WindowStats
	// SessionOption configures sessions.
	SessionOption = grid.SessionOption
	// Participant is a grid worker.
	Participant = grid.Participant
	// ParticipantOption customizes a participant.
	ParticipantOption = grid.ParticipantOption
	// ProducerFactory builds a participant behaviour per task.
	ProducerFactory = grid.ProducerFactory
	// BrokerHub is the GRACE-style broker: an identity-routed relay that
	// multiplexes supervisor↔worker routes, re-batches session frames at
	// the relay hop, and re-binds redialed supervisor routes to the same
	// registered worker so resume works through the relay.
	BrokerHub = grid.BrokerHub
	// BrokerOption configures NewBrokerHub.
	BrokerOption = grid.BrokerOption
	// MuxOption configures OpenMux.
	MuxOption = grid.MuxOption
	// LinkOption configures both endpoints of a supervisor↔hub link (it is
	// accepted by NewBrokerHub and OpenMux).
	LinkOption = grid.LinkOption
	// BrokerRouteStats is one worker's cumulative relay accounting.
	BrokerRouteStats = grid.RouteStats
	// BrokerRouteDirectionStats covers one relay direction's traffic.
	BrokerRouteDirectionStats = grid.RouteDirectionStats
	// SupervisorMux multiplexes many supervisor↔worker routes over one
	// physical hub link with per-route credit flow control.
	SupervisorMux = grid.SupervisorMux
	// Task is one assigned domain window.
	Task = grid.Task
	// SchemeKind enumerates verification schemes.
	SchemeKind = grid.SchemeKind
	// SchemeSpec parameterizes a scheme.
	SchemeSpec = grid.SchemeSpec
	// SimConfig describes a population simulation.
	SimConfig = grid.SimConfig
	// SimReport aggregates a simulation run.
	SimReport = grid.SimReport
	// TaskVerdict is the supervisor's authoritative per-task ruling in a
	// simulation report.
	TaskVerdict = grid.TaskVerdict
	// TaskOutcome summarizes one verified task.
	TaskOutcome = grid.TaskOutcome
)

// The verification schemes.
const (
	SchemeCBS         = grid.SchemeCBS
	SchemeNICBS       = grid.SchemeNICBS
	SchemeNaive       = grid.SchemeNaive
	SchemeDoubleCheck = grid.SchemeDoubleCheck
	SchemeRinger      = grid.SchemeRinger
)

// Grid constructors and helpers.
var (
	// NewSupervisor creates the task organizer.
	NewSupervisor = grid.NewSupervisor
	// NewSupervisorPool creates the concurrent verification engine.
	NewSupervisorPool = grid.NewSupervisorPool
	// NewParticipant creates a worker.
	NewParticipant = grid.NewParticipant
	// NewBrokerHub creates the GRACE relay hub.
	NewBrokerHub = grid.NewBrokerHub
	// HelloWorker registers a participant identity on a hub link.
	HelloWorker = grid.HelloWorker
	// OpenMux attaches a supervisor's hub link; routes to registered
	// workers are opened on it by name (see SupervisorMux.OpenRoute).
	OpenMux = grid.OpenMux
	// ErrMuxClosed reports use of a closed supervisor mux.
	ErrMuxClosed = grid.ErrMuxClosed
	// WithBrokerBindTimeout bounds how long a route waits for its worker to
	// register.
	WithBrokerBindTimeout = grid.WithBindTimeout
	// WithRouteCreditWindow sets the per-route credit window of a
	// supervisor↔hub link; pass the same value to NewBrokerHub and OpenMux.
	WithRouteCreditWindow = grid.WithRouteCreditWindow
	// RunSim executes a population simulation.
	RunSim = grid.RunSim
	// ParseScheme maps a scheme name to its kind.
	ParseScheme = grid.ParseScheme
	// HonestFactory produces honest workers.
	HonestFactory grid.ProducerFactory = grid.HonestFactory
	// SemiHonestFactory produces lazy cheaters.
	SemiHonestFactory = grid.SemiHonestFactory
	// MaliciousFactory produces report saboteurs.
	MaliciousFactory = grid.MaliciousFactory
	// WithProverParallelism makes a participant hash its commitment tree in
	// parallel; roots and reports stay identical to the sequential build.
	WithProverParallelism = grid.WithProverParallelism
	// WithStreamRedial enables reconnect-and-resume: quarantined
	// connections are replaced and their in-flight tasks resume
	// mid-protocol.
	WithStreamRedial = grid.WithRedial
	// WithStreamMaxReconnects bounds replacement connections per
	// participant.
	WithStreamMaxReconnects = grid.WithMaxReconnects
	// WithStreamRecvTimeout arms the sessions' receive watchdog, turning
	// silently dropped frames into reconnects.
	WithStreamRecvTimeout = grid.WithStreamRecvTimeout
	// WithStreamReplicas makes a double-check RunTaskSource fan every task
	// out to n pairwise-distinct connections whose uploads are compared once
	// all n settled.
	WithStreamReplicas = grid.WithReplicas
	// WithSessionRecvTimeout arms one session's receive watchdog.
	WithSessionRecvTimeout = grid.WithSessionRecvTimeout
	// SliceTaskSource adapts a fixed task slice to the TaskSource interface.
	SliceTaskSource = grid.SliceTaskSource
	// NewWindowLedger builds a supervisor-side ledger for one link's rolling
	// window commitments; pass the ledgers to WithStreamWindowSettle.
	NewWindowLedger = grid.NewWindowLedger
	// RestoreWindowLedger rebuilds a ledger from WindowLedger.Snapshot
	// output, resuming rolling-commitment verification after a supervisor
	// restart without losing hash-chain continuity.
	RestoreWindowLedger = grid.RestoreWindowLedger
	// WithStreamWindowSettle arms rolling window commitments on a streaming
	// run: participants commit each settled window of task digests to a
	// hash chain, and the per-link ledgers verify every commit with one
	// Merkle multiproof of sampled leaves.
	WithStreamWindowSettle = grid.WithWindowSettle
	// WithStreamHighWater bounds how many tickets a source-driven run
	// materializes ahead of execution (default 2×window×connections).
	WithStreamHighWater = grid.WithHighWater
	// WithStreamPinnedPlacement places source task i on connection i mod n
	// instead of work stealing, making placement deterministic.
	WithStreamPinnedPlacement = grid.WithPinnedPlacement
	// WithStreamSourceBase starts the task source's index walk at base
	// instead of 0, so a restored run consults the same absolute indices —
	// and under pinned placement lands tasks on the same connections — as
	// the unsegmented run it resumes.
	WithStreamSourceBase = grid.WithSourceBase
	// WithStreamDrainCheckpoint ends a source-driven run with a durable
	// checkpoint barrier: after draining, every live participant persists
	// its session state at the given sequence number and acknowledges.
	WithStreamDrainCheckpoint = grid.WithDrainCheckpoint
	// WithParticipantCheckpointDir gives a participant a directory for
	// durable checkpoint files; required for checkpoint barriers and
	// RestoreCheckpoint.
	WithParticipantCheckpointDir = grid.WithCheckpointDir
)

// ErrCheckpointCorrupt reports a checkpoint file that failed structural or
// checksum validation on restore.
var ErrCheckpointCorrupt = grid.ErrCheckpointCorrupt

// ErrConnQuarantined marks a transport fault that left the task's protocol
// state resumable on a replacement connection.
var ErrConnQuarantined = grid.ErrConnQuarantined

// ErrFrameCorrupt marks a frame that failed the transport's per-frame
// CRC-32 — link damage, distinguishable from peer misbehavior.
var ErrFrameCorrupt = transport.ErrFrameCorrupt

// MaxFrameBytes bounds a single transport frame; larger uploads travel as
// chunk streams.
const MaxFrameBytes = transport.MaxFrameBytes

// ---- Transport ----

type (
	// Conn is a byte-accounted message connection.
	Conn = transport.Conn
	// FaultPlan injects message loss or corruption for testing.
	FaultPlan = transport.FaultPlan
)

// Transport constructors.
var (
	// Pipe creates an in-memory connection pair.
	Pipe = transport.Pipe
	// WithPipeBuffer sets a pipe's per-direction queue depth.
	WithPipeBuffer = transport.WithBuffer
	// ListenTCP opens a framed TCP listener.
	ListenTCP = transport.Listen
	// DialTCP connects to a framed TCP listener.
	DialTCP = transport.Dial
	// WithFaults wraps a connection with fault injection.
	WithFaults = transport.WithFaults
	// WithLatency wraps a connection with a fixed per-frame send delay — a
	// link-delay model for benchmarking pipelined protocols.
	WithLatency = transport.WithLatency
)
