// Command benchmark is the repository's benchmark: four workloads driven
// closed-loop through the grid's exported API, ten end-to-end metrics
// measured with tracing off, and per-layer numbers from a traced run and
// from direct probes of each layer. BENCHMARK.json at the repository root
// names every workload and metric; README.md in this directory says which
// layer should move which metric on which workload.
//
//	go run ./benchmark -workload tcp_small -seed 1 -seconds 28 -trace 0
//	go run ./benchmark -workload tcp_small -seed 1 -seconds 28 -trace 1
//	go run ./benchmark -compare before.jsonl after.jsonl
//	go run ./benchmark -smoke
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to standard
// error. The exit code is 1 when an output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"uncheatgrid/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it back.
type record struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Trace    int      `json:"trace"`
	Seconds  float64  `json:"seconds"`
	Env      envInfo  `json:"env"`
	Problems []string `json:"problems,omitempty"`
	Result   result   `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run: tcp_small, commit_nicbs, brokered_mux or stream_ckpt")
		seed         = fs.Uint64("seed", 1, "fixes Task.Seed, the domain offset and the supervisor seed")
		seconds      = fs.Float64("seconds", 28, "how long the timed phase draws tasks")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and probes")
		traceOut     = fs.String("trace-out", "", "where a traced run writes its spans (default <scratch>/trace-<workload>.json)")
		scratch      = fs.String("scratch", ".bench_build", "directory for checkpoint files and the trace")
		out          = fs.String("out", "", "append the run's record to this JSON-lines file, for -compare")
		smoke        = fs.Bool("smoke", false, "run every workload, traced and untraced, at about 1% size")
		compare      = fs.Bool("compare", false, "compare two -out files: -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	env := readEnv()
	if *smoke {
		code := 0
		for _, spec := range workloads {
			for tr := 0; tr <= 1; tr++ {
				d := &driver{spec: spec, seed: *seed, scratch: *scratch, smoke: true}
				rec, err := d.runOnce(150*time.Millisecond, tr, "", env)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", spec.name, err)
					return 1
				}
				if !emit(stdout, stderr, rec, rec) {
					code = 1
				}
			}
		}
		return code
	}

	spec := findWorkload(*workloadName)
	if spec == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stderr, "env: %s\n", envLine)
	tracePath := *traceOut
	if tracePath == "" {
		tracePath = filepath.Join(*scratch, "trace-"+spec.name+".json")
	}
	d := &driver{spec: spec, seed: *seed, scratch: *scratch}
	rec, err := d.runOnce(time.Duration(*seconds*float64(time.Second)), *trace, tracePath, env)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", spec.name, err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if !emit(stdout, stderr, rec, rec.Result) {
		return 1
	}
	return 0
}

// emit prints line as one JSON line and the run's problems to stderr; it
// reports whether the run was correct.
func emit(stdout, stderr io.Writer, rec *record, line any) bool {
	for _, p := range rec.Problems {
		fmt.Fprintf(stderr, "benchmark: %s: INCORRECT: %s\n", rec.Workload, p)
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return false
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return rec.Result.Correct
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runOnce is one invocation: conformance, then either the untraced timed
// run (trace 0: end-to-end metrics) or an untraced run, the probes and a
// traced run, the two runs half the length each (trace 1: per-layer metrics).
func (d *driver) runOnce(duration time.Duration, trace int, tracePath string, env envInfo) (*record, error) {
	rec := &record{Workload: d.spec.name, Seed: d.seed, Trace: trace, Seconds: duration.Seconds(), Env: env}
	var tr *tracer
	if trace == 1 {
		tr = newTracer()
	}
	problems, err := d.conform(tr)
	if err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}

	var metrics map[string]float64
	var defs []metricDef
	var attempted, failed int
	if trace == 0 {
		setup, err := d.measureSetup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		obs, err := d.measure(duration, nil)
		if err != nil {
			return nil, err
		}
		problems = append(problems, obs.problems...)
		attempted, failed = obs.attempted, obs.failed
		metrics, defs = d.endToEndMetrics(obs, setup), endToEnd
	} else {
		plain, err := d.measure(duration/2, nil)
		if err != nil {
			return nil, err
		}
		// The probes run next to the untraced run whose CPU their costs are
		// set against: the host's speed drifts over minutes.
		p := &prober{d: d, tr: tr, root: -1, budget: 120 * time.Millisecond, out: make(map[string]float64)}
		if d.smoke {
			p.budget = 3 * time.Millisecond
		}
		p.lanes = int(math.Round(ratio(float64(plain.used.cpu), float64(plain.wall))))
		p.lanes = max(1, min(p.lanes, runtime.GOMAXPROCS(0)))
		if err := p.runAll(); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		traced, err := d.measure(duration/2, tr)
		if err != nil {
			return nil, err
		}
		problems = append(append(problems, plain.problems...), traced.problems...)
		attempted, failed = plain.attempted+traced.attempted, plain.failed+traced.failed
		metrics, defs = d.perLayerMetrics(plain, traced, tr, p), perLayer
		if err := tr.write(tracePath, env, d.spec.name, d.seed); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}

	rec.Problems = problems
	rec.Result = result{
		Correct:   len(problems) == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, def := range defs {
		rec.Result.Metrics[def.name] = metricValue{Value: metrics[def.name], Unit: def.unit}
	}
	return rec, nil
}

func perTask(total float64, o *observation) float64 {
	if o.verified() == 0 {
		return 0
	}
	return total / float64(o.verified())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics turns the untraced run into what a user of the grid sees.
func (d *driver) endToEndMetrics(o *observation, setup float64) map[string]float64 {
	return map[string]float64{
		"tasks_per_s":        o.rate(),
		"task_p50_ms":        o.latency(50),
		"task_p95_ms":        o.latency(95),
		"cpu_ms_per_task":    o.cpuPerTask(),
		"wire_B_per_task":    perTask(float64(o.physWire), o),
		"sup_evals_per_task": perTask(float64(o.supEvals), o),
		"allocs_per_task":    perTask(float64(o.used.mallocs), o),
		"alloc_B_per_task":   perTask(float64(o.used.allocBytes), o),
		"verified_share":     ratio(float64(o.verified()), float64(o.attempted)),
		"setup_s":            setup,
	}
}

// perLayerMetrics combines the traced run's boundary counts, the probes'
// unit costs and the untraced run's CPU into the per-layer table. Shares are
// computed, not measured: count x CPU one call consumed in a probe under the
// run's load / process CPU of the untraced run.
func (d *driver) perLayerMetrics(plain, traced *observation, tr *tracer, p *prober) map[string]float64 {
	spec := d.spec
	m := make(map[string]float64, len(perLayer))
	for k, v := range p.out {
		m[k] = v
	}
	t := traced
	sup, part := tr.counts(roleSup), tr.counts(rolePart)
	hubDown, hubUp, route := tr.counts(roleHubDown), tr.counts(roleHubUp), tr.counts(roleRoute)
	frames := func(c *linkCounts) float64 { return float64(c.framesOut.Load() + c.framesIn.Load()) }
	size := func(c *linkCounts) float64 { return float64(c.sizeOut.Load() + c.sizeIn.Load()) }

	// transport: the supervisor's physical endpoints for counts, every
	// physical endpoint for busy and waiting time.
	m["transport.frames_per_task"] = perTask(frames(sup), t)
	m["transport.B_per_frame"] = ratio(size(sup), frames(sup))
	var busy, wait int64
	for _, c := range []*linkCounts{sup, part, hubDown, hubUp} {
		busy += c.sendBusy.Load()
		wait += c.recvWait.Load()
	}
	m["transport.send_busy_us_per_task"] = perTask(float64(busy)/1e3, t)
	endpoints := 2 * spec.participants
	if spec.link == linkBroker {
		endpoints += 2 // both ends of the shared link
	}
	m["transport.recv_wait_share"] = ratio(float64(wait), float64(endpoints)*float64(t.linkLife))

	// grid.session: wire = tagged + session overhead (+ mux overhead).
	m["grid.session.tagged_B_per_task"] = perTask(float64(t.tagged), t)
	m["grid.session.overhead_B_per_task"] = perTask(float64(t.sessWire-t.tagged), t)
	sessFrames := frames(sup)
	if spec.link == linkBroker {
		sessFrames = frames(route)
	}
	m["grid.session.tasks_per_frame"] = ratio(float64(t.verified()), sessFrames)

	m["grid.stream.inflight_mean"] = ratio(float64(t.inflightSum), float64(t.draws))
	m["grid.stream.task_p99_ms"] = percentile(t.latencies(), 99)
	perConn := median(t.goroutines) / float64(spec.participants)
	m["grid.stream.goroutines_per_conn"] = perConn
	m["grid.stream.segment_turnaround_ms"] = median(t.turnaroundMs)

	if spec.link == linkBroker {
		m["grid.broker.link_frames_per_task"] = perTask(frames(sup), t)
		m["grid.broker.coalesce_ratio"] = ratio(frames(part), frames(sup))
		m["grid.broker.mux_overhead_B_per_task"] = perTask(float64(t.physWire-t.sessWire), t)
		m["grid.broker.bind_ms_per_route"] = float64(t.bindNanos) / 1e6 / float64(spec.participants)
		m["grid.broker.goroutines_per_route"] = perConn
	}

	m["grid.window.windows_settled"] = float64(t.windows.Settled)
	m["grid.window.violations"] = float64(t.windows.Violations)
	m["grid.window.pending"] = float64(t.windows.Pending)

	m["grid.checkpoint.barrier_ms"] = percentile(t.barrierMs, 50)
	m["grid.checkpoint.barrier_p95_ms"] = percentile(t.barrierMs, 95)
	m["grid.checkpoint.write_ms"] = t.ckptWriteMs
	m["grid.checkpoint.file_B"] = t.ckptFileSize
	m["grid.checkpoint.restore_ms"] = t.ckptRestoreMs
	m["grid.checkpoint.recovery_s"] = t.recovery.Seconds()
	m["grid.checkpoint.redone_tasks"] = float64(t.redone)

	// Shares of the untraced run's CPU. The participants' commitments are
	// costed whole, under load, and split between f and the tree in the
	// ratio of their clean unit costs.
	cpu := float64(plain.used.cpu) // ns
	tasks := float64(plain.verified())
	commits := float64(plain.fevals) / float64(spec.n)
	evalPart := ratio(m["workload.eval_ns"], m["workload.eval_ns"]+m["merkle.build_ns_per_leaf"])
	workloadShare := ratio(commits*p.commitCPU*evalPart, cpu)
	merkleNs := commits * p.commitCPU * (1 - evalPart)
	if spec.scheme.WindowTasks > 0 {
		merkleNs += tasks * m["merkle.stream_add_ns_per_leaf"]
	}
	merkleShare := ratio(merkleNs, cpu)
	verifyShare := ratio(tasks*p.verifyCPU, cpu)
	m["workload.cpu_share"] = workloadShare
	m["merkle.cpu_share"] = merkleShare
	m["core.verify_cpu_share"] = verifyShare
	m["grid.cpu_share_residual"] = 1 - workloadShare - merkleShare - verifyShare

	model := analysis.CBSCommunicationBytes(int64(spec.n), int64(spec.resultBytes), digestBytes, int64(spec.scheme.M))
	m["analysis.wire_model_ratio"] = ratio(m["grid.session.tagged_B_per_task"], float64(model))
	m["analysis.evals_model_ratio"] = ratio(perTask(float64(t.supEvals), t), float64(spec.scheme.M))

	m["trace.overhead_pct"] = 100 * (1 - ratio(traced.rate(), plain.rate()))
	m["trace.spans"] = float64(tr.spanCount())
	return m
}
