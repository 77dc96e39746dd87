package main

import "uncheatgrid/internal/grid"

// linkKind names how supervisor and participants are connected.
type linkKind int

const (
	linkPipe   linkKind = iota // in-process pipes, one per participant
	linkTCP                    // host loopback TCP, one socket per participant
	linkBroker                 // pipes behind one BrokerHub; routes share ONE muxed supervisor link
)

// workloadSpec fixes one workload: task shape, topology and load shape.
// Sizes are constants on purpose — the benchmark is the contract later
// changes are measured against, so nothing here is a tunable.
type workloadSpec struct {
	name string
	// why is the one-line reason BENCHMARK.json records for the workload.
	why string

	scheme grid.SchemeSpec
	// n is the task size |D|; resultBytes the width of one f(x) (the
	// "synthetic" workload emits 64 bits).
	n           int
	resultBytes int

	participants int
	window       int
	link         linkKind

	// segment, when positive, splits the stream into segments of that many
	// tasks, each ending in a drain checkpoint over fresh connections, with
	// pinned placement and one participant-pool crash mid-run.
	segment int

	// conformTasks sizes the untimed conformance phase.
	conformTasks int
}

// taskWorkload is the registered f every workload evaluates: 4 chained
// SHA-256 per input, 64-bit outputs, guess probability 2^-64.
const taskWorkload = "synthetic"

// digestBytes is the commitment digest size (SHA-256).
const digestBytes = 32

// conformHonesty is the semi-honest participant's honesty ratio r in the
// conformance phase.
const conformHonesty = 0.5

var workloads = []*workloadSpec{
	{
		name:         "tcp_small",
		why:          "Smallest task (CBS n=64 m=8) over loopback TCP: per-frame and per-task cost dominates, so transport, session, dispatcher and codecs do the work; merkle and f little.",
		scheme:       grid.SchemeSpec{Kind: grid.SchemeCBS, M: 8},
		n:            64,
		resultBytes:  8,
		participants: 2,
		window:       8,
		link:         linkTCP,
		conformTasks: 400,
	},
	{
		name:         "commit_nicbs",
		why:          "Commitment-bound (NI-CBS n=16384 m=32 over pipes): f evaluation and the Merkle build take the CPU; grid-layer changes must read no change here, merkle changes must show.",
		scheme:       grid.SchemeSpec{Kind: grid.SchemeNICBS, M: 32, ChainIters: 1},
		n:            16384,
		resultBytes:  8,
		participants: 2,
		window:       2,
		link:         linkPipe,
		// One semi-honest task at n=16384 seeds a math/rand source per
		// guessed input (~70 ms); 400 tasks would not fit the time cap.
		conformTasks: 48,
	},
	{
		name:         "brokered_mux",
		why:          "Relay-bound (CBS n=256 m=16, 8 workers behind one BrokerHub, 8 routes on ONE muxed supervisor link): every frame crosses hub and mux, so coalescing, envelopes and credit grants show here only.",
		scheme:       grid.SchemeSpec{Kind: grid.SchemeCBS, M: 16},
		n:            256,
		resultBytes:  8,
		participants: 8,
		window:       4,
		link:         linkBroker,
		conformTasks: 400,
	},
	{
		name:         "stream_ckpt",
		why:          "tcp_small's task over pipes with rolling window commitments, 500-task segments ending in durable checkpoints and one crash/restore: durability, window and segment-turnaround changes show only here.",
		scheme:       grid.SchemeSpec{Kind: grid.SchemeCBS, M: 8, WindowTasks: 16, WindowSamples: 4},
		n:            64,
		resultBytes:  8,
		participants: 2,
		window:       8,
		link:         linkPipe,
		segment:      500,
		conformTasks: 400,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before -compare (and the
// driver) call it a regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd lists what a user of the grid sees, measured with tracing off.
// BENCHMARK.json repeats this table; main_test.go holds the two equal.
//
// The four timings and the set-up carry the widest bound the driver allows:
// the 2-core reference VM shares its host, ten-seed quartile spreads of 2-10%
// were measured for them on quiet stretches and 11-16% across one of the
// host's slow waves (README.md). The counts repeat to within 0.1% and keep
// tight bounds.
var endToEnd = []metricDef{
	{"tasks_per_s", "1/s", "higher", 0.25},
	{"task_p50_ms", "ms", "lower", 0.25},
	{"task_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_task", "ms", "lower", 0.25},
	{"wire_B_per_task", "B", "lower", 0.02},
	{"sup_evals_per_task", "count", "lower", 0.01},
	{"allocs_per_task", "count", "lower", 0.03},
	{"alloc_B_per_task", "B", "lower", 0.05},
	{"verified_share", "share", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer numbers of the traced run: boundary
// counts from the tracing wrappers and hooks, probes of each layer's
// exported functions at the workload's sizes, and shares computed from the
// two. A metric that does not apply to a workload (broker numbers on a
// direct topology, checkpoint numbers without segments) reads 0 there.
var perLayer = []metricDef{
	{"transport.frames_per_task", "count", "lower", 0},
	{"transport.B_per_frame", "B", "higher", 0},
	{"transport.send_busy_us_per_task", "us", "lower", 0},
	{"transport.recv_wait_share", "share", "lower", 0},
	{"transport.pipe_rtt_us", "us", "lower", 0},
	{"transport.tcp_rtt_us", "us", "lower", 0},
	{"transport.tcp_MB_per_s", "MB/s", "higher", 0},
	{"transport.pipe_allocs_per_frame", "count", "lower", 0},
	{"transport.tcp_allocs_per_frame", "count", "lower", 0},

	{"grid.session.tagged_B_per_task", "B", "lower", 0},
	{"grid.session.overhead_B_per_task", "B", "lower", 0},
	{"grid.session.tasks_per_frame", "count", "higher", 0},
	{"grid.session.solo_task_us", "us", "lower", 0},

	{"grid.stream.inflight_mean", "count", "lower", 0},
	{"grid.stream.task_p99_ms", "ms", "lower", 0},
	{"grid.stream.goroutines_per_conn", "count", "lower", 0},
	{"grid.stream.segment_turnaround_ms", "ms", "lower", 0},

	{"grid.broker.link_frames_per_task", "count", "lower", 0},
	{"grid.broker.coalesce_ratio", "ratio", "higher", 0},
	{"grid.broker.mux_overhead_B_per_task", "B", "lower", 0},
	{"grid.broker.bind_ms_per_route", "ms", "lower", 0},
	{"grid.broker.goroutines_per_route", "count", "lower", 0},
	{"grid.broker.relay_hop_us", "us", "lower", 0},
	{"grid.broker.relay_MB_per_s", "MB/s", "higher", 0},

	{"grid.window.windows_settled", "count", "higher", 0},
	{"grid.window.violations", "count", "lower", 0},
	{"grid.window.pending", "count", "lower", 0},

	{"grid.checkpoint.barrier_ms", "ms", "lower", 0},
	{"grid.checkpoint.barrier_p95_ms", "ms", "lower", 0},
	{"grid.checkpoint.write_ms", "ms", "lower", 0},
	{"grid.checkpoint.file_B", "B", "lower", 0},
	{"grid.checkpoint.restore_ms", "ms", "lower", 0},
	{"grid.checkpoint.recovery_s", "s", "lower", 0},
	{"grid.checkpoint.redone_tasks", "count", "lower", 0},

	{"merkle.build_ns_per_leaf", "ns", "lower", 0},
	{"merkle.build_allocs", "count", "lower", 0},
	{"merkle.prove_us", "us", "lower", 0},
	{"merkle.verify_us", "us", "lower", 0},
	{"merkle.proof_B", "B", "lower", 0},
	{"merkle.stream_add_ns_per_leaf", "ns", "lower", 0},
	{"merkle.cpu_share", "share", "lower", 0},

	{"hashchain.sample_us", "us", "lower", 0},

	{"workload.eval_ns", "ns", "lower", 0},
	{"workload.cpu_share", "share", "higher", 0},

	{"core.commit_us", "us", "lower", 0},
	{"core.respond_us", "us", "lower", 0},
	{"core.verify_us", "us", "lower", 0},
	{"core.resp_encode_us", "us", "lower", 0},
	{"core.resp_decode_us", "us", "lower", 0},
	{"core.resp_allocs", "count", "lower", 0},
	{"core.resp_B", "B", "lower", 0},
	{"core.verify_cpu_share", "share", "lower", 0},

	{"grid.cpu_share_residual", "share", "lower", 0},

	{"analysis.wire_model_ratio", "ratio", "lower", 0},
	{"analysis.evals_model_ratio", "ratio", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}
