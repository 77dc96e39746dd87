package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"uncheatgrid/internal/grid"
)

// driver runs one workload's phases for one seed.
type driver struct {
	spec    *workloadSpec
	seed    uint64
	scratch string // root for checkpoint directories and the trace file
	smoke   bool   // ~1% size: tiny conformance, few set-up repeats, short probes
}

// ringSize bounds the per-task hook state: far above the most tasks ever
// drawn and unsettled at once (look-ahead 2 x window x conns <= 64).
const ringSize = 1024

// observation is everything one measured phase saw.
type observation struct {
	attempted int
	failed    int
	problems  []string // correctness violations, in the order found

	wall     time.Duration // start of the stream to its end
	linkLife time.Duration // first dial to last hangup: how long receivers could wait
	used     resources

	// The phase cut into slices of sliceWidth by the time each verdict was
	// received: verified tasks, their first draw -> verdict times, and the
	// process CPU when each slice began (cpuAt[k+1]-cpuAt[k] is slice k's).
	// Every timing is reported as the fast tail over these slices.
	perSlice   []int
	latBySlice [][]float64
	cpuAt      []time.Duration

	physWire int64 // supervisor's physical endpoints, both directions
	sessWire int64 // session-level connections (routes when brokered)
	tagged   int64 // sum of TaskOutcome.BytesSent+BytesRecv
	supEvals int64 // verification evals, net of the aborted segment's
	fevals   int64 // participants' evaluations of f

	inflightSum, draws int64
	goroutines         []float64 // samples of goroutines above the pre-setup baseline
	bindNanos          int64

	windows                    grid.WindowStats // summed over ledgers
	wantWindows                uint64
	barrierMs, turnaroundMs    []float64
	recovery                   time.Duration
	redone                     int
	ckptWriteMs, ckptRestoreMs float64
	ckptFileSize               float64 // mean size of a participant's checkpoint file
	segments                   int
}

// verified is the number of tasks that ended with exactly one accepted
// verdict.
func (o *observation) verified() int { return o.attempted - o.failed }

// sliceWidth is the grain the timed phase is cut into. A quarter of a second
// holds 40 tasks of the slowest workload, so a slice's p95 has 2 samples
// above it, and a 28 s phase has 112 slices.
const sliceWidth = 250 * time.Millisecond

// fastShare is how far from the fast end of the per-slice values a timing is
// read: the 6th or 7th fastest slice of 112.
const fastShare = 0.05

// fastTail summarises one timing's per-slice values: the quantile fastShare
// from the fast end (from the top for a rate, from the bottom for a time or a
// cost). The benchmark shares its host, and whatever a neighbour takes —
// processor time, cache, memory bandwidth — only ever slows a slice down. A
// median over the run moves with every burst; a value near the fast end stays
// among the slices the process had the machine in, and is the figure that
// repeats (README.md has the measurements). It is not the single best slice,
// which one lucky draw of tasks would own. A change to the code moves every
// slice, and the tail with them.
func fastTail(perSlice []float64, higherIsFaster bool) float64 {
	if higherIsFaster {
		return quantile(perSlice, 1-fastShare)
	}
	return quantile(perSlice, fastShare)
}

// rate is verified tasks per second: the fast tail of the per-slice
// completion counts. A phase shorter than a slice reports its mean.
func (o *observation) rate() float64 {
	if len(o.perSlice) == 0 {
		if o.wall <= 0 {
			return 0
		}
		return float64(o.verified()) / o.wall.Seconds()
	}
	rates := make([]float64, len(o.perSlice))
	for i, n := range o.perSlice {
		rates[i] = float64(n) / sliceWidth.Seconds()
	}
	return fastTail(rates, true)
}

// latencies returns every verified task's first draw -> verdict time.
func (o *observation) latencies() []float64 {
	var all []float64
	for _, lat := range o.latBySlice {
		all = append(all, lat...)
	}
	return all
}

// latency is the fast tail over the phase's slices of the p-th
// percentile of the tasks verified in each. A phase shorter than a slice
// reports the percentile of all its tasks.
func (o *observation) latency(p float64) float64 {
	var perSlice []float64
	for _, lat := range o.latBySlice[:len(o.perSlice)] {
		if len(lat) > 0 {
			perSlice = append(perSlice, percentile(lat, p))
		}
	}
	if len(perSlice) == 0 {
		return percentile(o.latencies(), p)
	}
	return fastTail(perSlice, false)
}

// cpuPerTask is the fast tail over the phase's slices of the process CPU
// spent in a slice per task verified in it, in ms. A phase shorter than a
// slice reports its mean.
func (o *observation) cpuPerTask() float64 {
	var perSlice []float64
	for k, n := range o.perSlice {
		if n > 0 && k+1 < len(o.cpuAt) {
			perSlice = append(perSlice, float64(o.cpuAt[k+1]-o.cpuAt[k])/float64(time.Millisecond)/float64(n))
		}
	}
	if len(perSlice) == 0 {
		return perTask(float64(o.used.cpu)/float64(time.Millisecond), o)
	}
	return fastTail(perSlice, false)
}

func (o *observation) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// taskFor builds the i-th task of the run: consecutive windows of the
// domain starting at a seed-derived offset.
func (d *driver) taskFor(i uint64) grid.Task {
	base := (d.seed*0x9e3779b97f4a7c15 + 0x1234567) >> 20
	return grid.Task{
		ID:       i,
		Start:    base + i*uint64(d.spec.n),
		N:        uint64(d.spec.n),
		Workload: taskWorkload,
		Seed:     d.seed,
	}
}

func (d *driver) newPool(conns int) (*grid.SupervisorPool, error) {
	return grid.NewSupervisorPool(grid.SupervisorConfig{
		Spec: d.spec.scheme,
		Seed: int64(d.seed) ^ 0x5c4ed,
	}, conns*d.spec.window)
}

func (d *driver) newLedgers(n int) ([]*grid.WindowLedger, error) {
	if d.spec.scheme.WindowTasks == 0 {
		return nil, nil
	}
	ledgers := make([]*grid.WindowLedger, n)
	for i := range ledgers {
		led, err := grid.NewWindowLedger(d.spec.scheme)
		if err != nil {
			return nil, err
		}
		ledgers[i] = led
	}
	return ledgers, nil
}

// site is one assembled instance of the workload: the topology, the pool
// that drives it and the window ledgers, over a scratch checkpoint directory
// when the workload checkpoints.
type site struct {
	rg      *rig
	pool    *grid.SupervisorPool
	ledgers []*grid.WindowLedger // nil without window commitments
}

// assemble builds a site; cheaters semi-honest participants join the honest
// ones, tr (nil: off) wraps the links and parents their spans under span.
func (d *driver) assemble(tr *tracer, span, cheaters int) (*site, error) {
	r := &rig{spec: d.spec, tr: tr, span: span, seed: d.seed, cheaters: cheaters}
	if d.spec.segment > 0 {
		var err error
		if r.ckptDir, err = scratchDir(d.scratch, "ckpt-"); err != nil {
			return nil, err
		}
	}
	st := &site{rg: r}
	err := r.build()
	if err == nil {
		st.pool, err = d.newPool(len(r.conns))
	}
	if err == nil {
		st.ledgers, err = d.newLedgers(len(r.conns))
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close hangs up whatever is still connected and removes the checkpoint
// directory.
func (st *site) close() {
	st.rg.close()
	if st.rg.ckptDir != "" {
		_ = os.RemoveAll(st.rg.ckptDir)
	}
}

// meter holds the hooks of one measured phase: the source stamps each task
// at its first draw, the outcome loop stamps it on receipt.
type meter struct {
	tr    *tracer
	obs   *observation
	start time.Time
	root  int // parent span of everything the phase records

	drawNanos [ringSize]atomic.Int64 // draw time since start, by task ID mod ringSize
	taskSpan  [ringSize]atomic.Int64
	drawn     int64 // tasks handed out and not withdrawn; touched by the source only
	settled   atomic.Int64
	baseGo    int
	crashSpan int

	seen  []uint8 // accepted verdicts per task ID
	slice int     // last slice of the phase a verdict was received in
}

// onDraw is called from the task source (under the dispatcher's lock, so it
// only stamps and counts).
func (m *meter) onDraw(id uint64) {
	m.drawNanos[id%ringSize].Store(int64(time.Since(m.start)))
	m.drawn++
	m.obs.inflightSum += m.drawn - m.settled.Load()
	m.obs.draws++
	if m.tr != nil {
		m.taskSpan[id%ringSize].Store(int64(m.tr.begin("task", m.root, int64(id))))
	}
}

// staged is one outcome waiting for its segment to finish: a segment that
// is aborted by the crash re-runs in full, so its outcomes never count.
type staged struct {
	id       uint64
	latMs    float64
	slice    int
	tagged   int64
	accepted bool
}

// onOutcome stamps one received outcome.
func (m *meter) onOutcome(so grid.StreamedOutcome) staged {
	now := time.Since(m.start)
	id := so.Outcome.Task.ID
	if m.tr != nil {
		m.tr.end(int(m.taskSpan[id%ringSize].Load()))
	}
	m.settled.Add(1)
	slice := int(now / sliceWidth)
	if slice > m.slice {
		// cpuAt[k] is the CPU when slice k began, read at the slice's first
		// verdict; a slice without verdicts is charged to the one before it.
		cpu := processCPU()
		for ; m.slice < slice; m.slice++ {
			m.obs.cpuAt = append(m.obs.cpuAt, cpu)
		}
		m.obs.goroutines = append(m.obs.goroutines, float64(runtime.NumGoroutine()-m.baseGo))
	}
	return staged{
		id:       id,
		latMs:    float64(now-time.Duration(m.drawNanos[id%ringSize].Load())) / float64(time.Millisecond),
		slice:    slice,
		tagged:   so.Outcome.BytesSent + so.Outcome.BytesRecv,
		accepted: so.Outcome.Verdict.Accepted,
	}
}

// commit counts a finished outcome.
func (m *meter) commit(s staged) {
	o := m.obs
	for uint64(len(m.seen)) <= s.id {
		m.seen = append(m.seen, 0)
	}
	if !s.accepted {
		o.problem("honest task %d rejected", s.id)
		return
	}
	m.seen[s.id]++
	for len(o.perSlice) <= s.slice {
		o.perSlice = append(o.perSlice, 0)
		o.latBySlice = append(o.latBySlice, nil)
	}
	o.perSlice[s.slice]++
	o.latBySlice[s.slice] = append(o.latBySlice[s.slice], s.latMs)
	o.tagged += s.tagged
}

// finish turns the hook state into the observation's totals. drawn is how
// many tasks the source handed out; whole is how many whole slices the phase
// measured (the ragged last slice and anything after the deadline are
// dropped from the rate).
func (m *meter) finish(drawn uint64, whole int) {
	o := m.obs
	o.attempted = int(drawn)
	for id := uint64(0); id < drawn; id++ {
		if id >= uint64(len(m.seen)) || m.seen[id] != 1 {
			o.failed++
			if id < uint64(len(m.seen)) && m.seen[id] > 1 {
				o.problem("task %d has %d accepted verdicts", id, m.seen[id])
			}
		}
	}
	if o.failed > 0 {
		o.problem("%d of %d tasks without exactly one accepted verdict", o.failed, o.attempted)
	}
	if whole < len(o.perSlice) {
		o.perSlice = o.perSlice[:whole]
	}
}

// measure builds the topology, runs the workload's closed loop for about
// the given time, tears everything down and returns what it saw. With a
// tracer the links are wrapped and every phase leaves spans.
func (d *driver) measure(duration time.Duration, tr *tracer) (*observation, error) {
	obs := &observation{}
	root := tr.begin("run", -1, -1)
	defer tr.end(root)
	baseGo := runtime.NumGoroutine()

	setup := tr.begin("setup", root, -1)
	dialed := time.Now()
	st, err := d.assemble(tr, setup, 0)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rg, pool, ledgers := st.rg, st.pool, st.ledgers
	tr.end(setup)

	m := &meter{tr: tr, obs: obs, root: root, baseGo: baseGo, seen: make([]uint8, 0, 1<<20)}
	base := readResources()
	obs.cpuAt = append(obs.cpuAt, base.cpu)
	m.start = time.Now()
	var drawn uint64
	if d.spec.segment > 0 {
		drawn, err = d.runSegments(m, rg, pool, ledgers, duration)
	} else {
		drawn, err = d.runStream(m, rg, pool, duration)
	}
	obs.wall = time.Since(m.start)
	obs.used = readResources().since(base)
	if err != nil {
		return nil, err
	}
	m.finish(drawn, int(duration/sliceWidth))

	if d.spec.segment > 0 {
		d.probeCheckpoint(obs, rg, tr, root)
	}
	if err := rg.hangup(); err != nil {
		obs.problem("participant serve loop: %v", err)
	}
	obs.linkLife = time.Since(dialed)
	obs.physWire, obs.sessWire = rg.physWire, rg.sessWire
	obs.bindNanos = rg.bindNanos
	obs.fevals = rg.fevals()
	for _, led := range ledgers {
		st := led.Stats()
		obs.windows.Settled += st.Settled
		obs.windows.Violations += st.Violations
		obs.windows.Pending += st.Pending
		if st.Violations > 0 {
			obs.problem("window violation: %s", st.LastViolation)
		}
	}
	if w := d.spec.scheme.WindowTasks; w > 0 {
		// Pinned placement deals task i to link i mod conns, so every link
		// saw the same share of the whole segments the run completed.
		conns := uint64(d.spec.participants)
		if want := conns * (drawn / conns / uint64(w)); obs.windows.Settled != want {
			obs.problem("%d windows settled, want %d", obs.windows.Settled, want)
		}
	}
	if want := int64(obs.verified()) * int64(d.spec.scheme.M); obs.supEvals != want {
		obs.problem("supervisor spent %d verification evals on %d tasks, want m=%d each",
			obs.supEvals, obs.verified(), d.spec.scheme.M)
	}
	return obs, nil
}

// runStream is the unsegmented closed loop: one RunTaskSource stream whose
// source stops handing out tasks at the deadline.
func (d *driver) runStream(m *meter, rg *rig, pool *grid.SupervisorPool, duration time.Duration) (uint64, error) {
	deadline := m.start.Add(duration)
	var drawn uint64
	source := func(i uint64) (grid.Task, bool) {
		if time.Now().After(deadline) {
			return grid.Task{}, false
		}
		drawn = i + 1
		m.onDraw(i)
		return d.taskFor(i), true
	}
	stream, err := pool.RunTaskSource(context.Background(), rg.conns, source, d.spec.window)
	if err != nil {
		return 0, err
	}
	for so := range stream.Outcomes() {
		m.commit(m.onOutcome(so))
	}
	if err := stream.Err(); err != nil {
		return 0, err
	}
	m.obs.supEvals = pool.VerifyEvals()
	return drawn, nil
}

// runSegments is the checkpointed closed loop: segments of spec.segment
// tasks over fresh links, each ending in a drain checkpoint, until the
// deadline passes; the first segment starting in the second half of the run
// loses its whole participant pool mid-way and re-runs from the files.
func (d *driver) runSegments(m *meter, rg *rig, pool *grid.SupervisorPool, ledgers []*grid.WindowLedger, duration time.Duration) (uint64, error) {
	obs := m.obs
	seg := uint64(d.spec.segment)
	snaps := make([][]byte, len(ledgers))
	snapshot := func() {
		for i, led := range ledgers {
			snaps[i] = led.Snapshot()
		}
	}
	snapshot()

	var (
		from        uint64
		crashed     bool
		crashAt     time.Time
		recovering  bool
		wasted      int64
		lastOutcome time.Time
		firstDial   = true
		buf         = make([]staged, 0, seg)
	)
	for time.Since(m.start) < duration || recovering {
		to := from + seg
		if !firstDial {
			if err := rg.dial(); err != nil {
				return 0, err
			}
		}
		firstDial = false
		crashNow := !crashed && time.Since(m.start) >= duration/2
		segSpan := m.tr.begin("segment", m.root, int64(from))
		evalsBefore := pool.VerifyEvals()

		source := func(i uint64) (grid.Task, bool) {
			if i >= to {
				return grid.Task{}, false
			}
			m.onDraw(i)
			return d.taskFor(i), true
		}
		drawnBefore := m.drawn
		ctx, cancel := context.WithCancel(context.Background())
		stream, err := pool.RunTaskSource(ctx, rg.conns, source, d.spec.window,
			grid.WithPinnedPlacement(), grid.WithSourceBase(from),
			grid.WithWindowSettle(ledgers), grid.WithDrainCheckpoint(to))
		if err != nil {
			cancel()
			return 0, err
		}
		buf = buf[:0]
		aborted := false
		for so := range stream.Outcomes() {
			s := m.onOutcome(so)
			if len(buf) == 0 && !lastOutcome.IsZero() {
				obs.turnaroundMs = append(obs.turnaroundMs, msSince(lastOutcome))
			}
			if recovering {
				recovering = false
				obs.recovery = time.Since(crashAt)
				m.tr.end(m.crashSpan)
			}
			lastOutcome = time.Now()
			buf = append(buf, s)
			// Crash only while segment tasks are unsettled: the drain barrier
			// cannot have started, so no participant file is ahead of the
			// supervisor's ledger snapshots.
			if crashNow && !aborted && uint64(len(buf)) == seg/2 {
				aborted = true
				crashed = true
				crashAt = time.Now()
				m.crashSpan = m.tr.begin("crash-to-recovery", m.root, int64(from))
				rg.crash()
				cancel()
			}
		}
		barrier := m.tr.begin("barrier", segSpan, int64(from))
		streamErr := stream.Err()
		m.tr.end(barrier)
		cancel()
		if !aborted {
			obs.barrierMs = append(obs.barrierMs, msSince(lastOutcome))
		}
		serveErr := rg.hangup()
		m.tr.end(segSpan)

		if aborted {
			// The pool died: rebuild it from its checkpoint files, roll the
			// surviving supervisor's ledgers back to the same barrier, and run
			// the segment again.
			obs.redone = len(buf)
			wasted = pool.VerifyEvals() - evalsBefore
			m.drawn = drawnBefore
			m.settled.Add(-int64(len(buf)))
			if err := d.restorePool(rg, ledgers, snaps, from, m.crashSpan); err != nil {
				return 0, err
			}
			recovering = true
			lastOutcome = time.Time{}
			continue
		}
		if streamErr != nil {
			return 0, streamErr
		}
		if serveErr != nil {
			return 0, serveErr
		}
		if uint64(len(buf)) != seg {
			return 0, fmt.Errorf("segment [%d,%d) settled %d tasks", from, to, len(buf))
		}
		for _, s := range buf {
			m.commit(s)
		}
		snapshot()
		from = to
	}
	obs.supEvals = pool.VerifyEvals() - wasted
	return from, nil
}

// restorePool replaces the crashed participants with fresh ones restored
// from their checkpoint files and rewinds the ledgers to the snapshots
// taken at the same barrier.
func (d *driver) restorePool(rg *rig, ledgers []*grid.WindowLedger, snaps [][]byte, seq uint64, parent int) error {
	span := rg.tr.begin("restore", parent, int64(seq))
	defer rg.tr.end(span)
	if err := rg.buildParticipants(); err != nil {
		return err
	}
	for _, p := range rg.parts {
		got, ok, err := p.RestoreCheckpoint()
		if err != nil {
			return err
		}
		if (ok && got != seq) || (!ok && seq != 0) {
			return fmt.Errorf("participant %s restored checkpoint %d (found=%v), supervisor is at %d", p.ID(), got, ok, seq)
		}
	}
	for i := range ledgers {
		led, err := grid.RestoreWindowLedger(d.spec.scheme, snaps[i])
		if err != nil {
			return err
		}
		ledgers[i] = led
	}
	return nil
}

// probeCheckpoint times the participant's checkpoint write and restore on
// the state the run left behind, and sizes the file.
func (d *driver) probeCheckpoint(obs *observation, rg *rig, tr *tracer, root int) {
	span := tr.begin("probe:grid.checkpoint", root, -1)
	defer tr.end(span)
	p := rg.parts[0]
	const reps = 20
	seq := uint64(obs.attempted)
	write := make([]float64, 0, reps)
	restore := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := p.WriteCheckpoint(seq); err != nil {
			obs.problem("checkpoint write: %v", err)
			return
		}
		write = append(write, msSince(start))
		fresh, err := grid.NewParticipant(p.ID(), grid.HonestFactory, grid.WithCheckpointDir(rg.ckptDir))
		if err != nil {
			obs.problem("checkpoint restore: %v", err)
			return
		}
		start = time.Now()
		if _, _, err := fresh.RestoreCheckpoint(); err != nil {
			obs.problem("checkpoint restore: %v", err)
			return
		}
		restore = append(restore, msSince(start))
	}
	obs.ckptWriteMs, obs.ckptRestoreMs = median(write), median(restore)
	files, _ := filepath.Glob(filepath.Join(rg.ckptDir, "*.ckpt"))
	var size float64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			size += float64(st.Size())
		}
	}
	if len(files) > 0 {
		obs.ckptFileSize = size / float64(len(files))
	}
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
