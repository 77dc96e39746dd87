package main

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"uncheatgrid/internal/core"
	"uncheatgrid/internal/grid"
	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/merkle"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// Probes are direct timed calls into one layer's exported functions at the
// workload's n, m and frame sizes. They give the unit costs the traced run's
// counts are multiplied by; each runs for a fraction of a second.

// prober runs the probes of one traced run and collects their metrics.
type prober struct {
	d      *driver
	tr     *tracer
	root   int
	budget time.Duration // per probe
	out    map[string]float64

	// lanes is how many cores the untraced run kept busy; the two CPU costs
	// below are taken with that many goroutines calling at once.
	lanes int
	// Process CPU (ns) that one participant-side commitment (n evaluations
	// of f plus the tree build, core.NewProver) and one supervisor-side
	// verification consumed under that load. They feed the computed
	// cpu_share metrics, which clean single-threaded medians would
	// understate: those leave out the garbage collection the calls cause
	// and what sharing the memory system costs.
	commitCPU, verifyCPU float64
}

// probeFrameType tags probe frames; the hub relays frame types it does not
// know untouched, and no protocol message uses this value.
const probeFrameType = 200

// timeOp calls fn in growing batches for about budget and returns the
// median time of one call.
func timeOp(budget time.Duration, fn func()) time.Duration {
	batch := 1
	var perCall []float64
	deadline := time.Now().Add(budget)
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		took := time.Since(start)
		perCall = append(perCall, float64(took)/float64(batch))
		if time.Now().After(deadline) {
			break
		}
		if took < 50*time.Microsecond {
			batch *= 2
			perCall = perCall[:0] // samples from too-small batches are timer noise
		}
	}
	sort.Float64s(perCall)
	return time.Duration(perCall[len(perCall)/2])
}

// allocsPer reports heap allocations per call of fn, process-wide, so the
// probe must be the only thing running.
func allocsPer(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuPerCall runs fn on lanes goroutines at once for about budget and
// returns the process CPU, in nanoseconds, that one call consumed.
func cpuPerCall(budget time.Duration, lanes int, fn func()) float64 {
	calls := make([]int64, lanes)
	var wg sync.WaitGroup
	deadline := time.Now().Add(budget)
	before := processCPU()
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				fn()
				calls[lane]++
			}
		}(lane)
	}
	wg.Wait()
	used := processCPU() - before
	var total int64
	for _, n := range calls {
		total += n
	}
	return ratio(float64(used), float64(total))
}

// probe runs fn inside a span named after the layer.
func (p *prober) probe(layer string, fn func()) {
	span := p.tr.begin("probe:"+layer, p.root, -1)
	fn()
	p.tr.end(span)
}

// runAll runs every probe that applies to the workload.
func (p *prober) runAll() error {
	spec := p.d.spec
	f, err := workload.New(taskWorkload, p.d.seed)
	if err != nil {
		return err
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.probe("workload", func() { p.probeWorkload(f) })
	p.probe("merkle", func() { note(p.probeMerkle(f)) })
	p.probe("hashchain", func() { note(p.probeHashchain()) })
	p.probe("core", func() { note(p.probeCore(f)) })
	p.probe("transport", func() { note(p.probeTransport()) })
	p.probe("grid.session", func() { note(p.probeSolo()) })
	if spec.link == linkBroker {
		p.probe("grid.broker", func() { note(p.probeRelay()) })
	}
	return firstErr
}

func (p *prober) probeWorkload(f workload.Function) {
	x := uint64(0)
	p.out["workload.eval_ns"] = float64(timeOp(p.budget, func() { _ = f.Eval(x); x++ }))
}

// leafValues evaluates f over one task's domain.
func (p *prober) leafValues(f workload.Function) [][]byte {
	values := make([][]byte, p.d.spec.n)
	for i := range values {
		values[i] = f.Eval(uint64(i))
	}
	return values
}

func (p *prober) probeMerkle(f workload.Function) error {
	n := p.d.spec.n
	values := p.leafValues(f)
	at := func(i int) []byte { return values[i] }
	var tree *merkle.Tree
	var err error
	build := func() { tree, err = merkle.BuildFunc(n, at) }
	p.out["merkle.build_ns_per_leaf"] = float64(timeOp(p.budget, build)) / float64(n)
	if err != nil {
		return err
	}
	p.out["merkle.build_allocs"] = allocsPer(8, build)

	idx := 0
	var proof *merkle.Proof
	p.out["merkle.prove_us"] = micros(timeOp(p.budget, func() {
		proof, err = tree.Prove(idx % n)
		idx += 7
	}))
	if err != nil {
		return err
	}
	root := tree.Root()
	p.out["merkle.verify_us"] = micros(timeOp(p.budget, func() { err = merkle.Verify(root, proof) }))
	if err != nil {
		return err
	}
	p.out["merkle.proof_B"] = float64(proof.EncodedSize())

	// The serial StreamBuilder over fixed-size digests: what a participant
	// pays per settled task to bind its history into each checkpoint.
	digest := make([]byte, digestBytes)
	const streamLeaves = 4096
	p.out["merkle.stream_add_ns_per_leaf"] = float64(timeOp(p.budget, func() {
		var sb *merkle.StreamBuilder
		if sb, err = merkle.NewStreamBuilder(streamLeaves); err != nil {
			return
		}
		for i := 0; i < streamLeaves; i++ {
			if err = sb.Add(digest); err != nil {
				return
			}
		}
		_, err = sb.Root()
	})) / streamLeaves
	return err
}

func (p *prober) probeHashchain() error {
	spec := p.d.spec
	iters := spec.scheme.ChainIters
	if iters < 1 {
		iters = 1
	}
	chain, err := hashchain.New(iters)
	if err != nil {
		return err
	}
	root := make([]byte, digestBytes)
	p.out["hashchain.sample_us"] = micros(timeOp(p.budget, func() {
		_, err = chain.SampleIndices(root, spec.scheme.M, uint64(spec.n))
	}))
	return err
}

func (p *prober) probeCore(f workload.Function) error {
	spec := p.d.spec
	claim := func(i uint64) []byte { return f.Eval(i) }
	var prover *core.Prover
	var err error
	p.out["core.commit_us"] = micros(timeOp(p.budget, func() { prover, err = core.NewProver(spec.n, claim) }))
	if err != nil {
		return err
	}
	p.commitCPU = cpuPerCall(2*p.budget, p.lanes, func() { _, _ = core.NewProver(spec.n, claim) })
	rng := rand.New(rand.NewSource(int64(p.d.seed)))
	verifier, err := core.NewVerifier(prover.Commitment(), core.WithRand(rng))
	if err != nil {
		return err
	}
	challenge, err := verifier.Challenge(spec.scheme.M)
	if err != nil {
		return err
	}
	var resp *core.Response
	p.out["core.respond_us"] = micros(timeOp(p.budget, func() { resp, err = prover.Respond(challenge.Indices) }))
	if err != nil {
		return err
	}
	check := core.RecomputeCheck(claim)
	p.out["core.verify_us"] = micros(timeOp(p.budget, func() { err = verifier.Verify(challenge, resp, check) }))
	if err != nil {
		return err
	}
	p.verifyCPU = cpuPerCall(2*p.budget, p.lanes, func() { _ = verifier.Verify(challenge, resp, check) })
	var wire []byte
	encode := func() { wire, err = resp.MarshalBinary() }
	p.out["core.resp_encode_us"] = micros(timeOp(p.budget, encode))
	if err != nil {
		return err
	}
	decode := func() {
		var back core.Response
		err = back.UnmarshalBinary(wire)
	}
	p.out["core.resp_decode_us"] = micros(timeOp(p.budget, decode))
	if err != nil {
		return err
	}
	p.out["core.resp_allocs"] = allocsPer(64, func() { encode(); decode() })
	p.out["core.resp_B"] = float64(resp.EncodedSize())
	return nil
}

// echoPair starts a goroutine echoing every frame received on b back to its
// sender and returns a function that stops it and waits for it. recycle
// says received payloads are pooled buffers (TCP) to hand back once sent;
// a pipe delivers the sender's own slice.
func echoPair(a, b transport.Conn, recycle bool) (stop func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, err := b.Recv()
			if err != nil {
				return
			}
			if err := b.Send(m); err != nil {
				return
			}
			if recycle {
				transport.RecyclePayload(m.Payload)
			}
		}
	}()
	return func() {
		_ = a.Close()
		_ = b.Close()
		wg.Wait()
	}
}

// tcpPair dials a loopback TCP connection and returns both ends.
func tcpPair() (a, b transport.Conn, err error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	if a, err = transport.Dial(l.Addr()); err != nil {
		return nil, nil, err
	}
	if b, err = l.Accept(); err != nil {
		_ = a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// roundTrip sends one frame on conn and waits for its echo.
func roundTrip(conn transport.Conn, payload []byte, recycle bool) error {
	if err := conn.Send(transport.Message{Type: probeFrameType, Payload: payload}); err != nil {
		return err
	}
	m, err := conn.Recv()
	if err != nil {
		return err
	}
	if recycle {
		transport.RecyclePayload(m.Payload)
	}
	return nil
}

func (p *prober) probeTransport() error {
	small := make([]byte, 64)
	var err error

	a, b := transport.Pipe(transport.WithBuffer(8))
	stop := echoPair(a, b, false)
	ping := func() { err = roundTrip(a, small, false) }
	p.out["transport.pipe_rtt_us"] = micros(timeOp(p.budget, ping))
	p.out["transport.pipe_allocs_per_frame"] = allocsPer(256, ping) / 2
	stop()
	if err != nil {
		return err
	}

	ta, tb, err := tcpPair()
	if err != nil {
		return err
	}
	stop = echoPair(ta, tb, true)
	ping = func() { err = roundTrip(ta, small, true) }
	p.out["transport.tcp_rtt_us"] = micros(timeOp(p.budget, ping))
	p.out["transport.tcp_allocs_per_frame"] = allocsPer(256, ping) / 2
	stop()
	if err != nil {
		return err
	}

	// One-way 1 MiB frames over TCP; the receiver hands every payload back
	// to the receive pool like the session layer does.
	ta, tb, err = tcpPair()
	if err != nil {
		return err
	}
	big := make([]byte, 1<<20)
	received := make(chan int, 1)
	go func() {
		got := 0
		for {
			m, err := tb.Recv()
			if err != nil {
				received <- got
				return
			}
			got++
			transport.RecyclePayload(m.Payload)
		}
	}()
	start := time.Now()
	for time.Since(start) < p.budget && err == nil {
		err = ta.Send(transport.Message{Type: probeFrameType, Payload: big})
	}
	_ = ta.Close()
	got := <-received
	took := time.Since(start)
	_ = tb.Close()
	if err != nil {
		return err
	}
	p.out["transport.tcp_MB_per_s"] = float64(got) * float64(len(big)) / 1e6 / took.Seconds()
	return nil
}

// probeSolo runs the workload's tasks one at a time over one unloaded pipe:
// one connection, window 1, look-ahead 1 — the floor under task_p50_ms.
func (p *prober) probeSolo() error {
	spec := p.d.spec
	solo := *spec
	solo.participants, solo.window, solo.link, solo.segment = 1, 1, linkPipe, 0
	solo.scheme.WindowTasks, solo.scheme.WindowSamples = 0, 0
	sd := &driver{spec: &solo, seed: p.d.seed, scratch: p.d.scratch}
	rg := &rig{spec: &solo, seed: p.d.seed}
	defer rg.close()
	if err := rg.build(); err != nil {
		return err
	}
	pool, err := sd.newPool(1)
	if err != nil {
		return err
	}
	m := &meter{obs: &observation{}, start: time.Now()}
	deadline := m.start.Add(p.budget)
	source := func(i uint64) (grid.Task, bool) {
		if i >= 2 && time.Now().After(deadline) {
			return grid.Task{}, false
		}
		m.onDraw(i)
		return sd.taskFor(i), true
	}
	stream, err := pool.RunTaskSource(context.Background(), rg.conns, source, 1, grid.WithHighWater(1))
	if err != nil {
		return err
	}
	for so := range stream.Outcomes() {
		m.commit(m.onOutcome(so))
	}
	if err := stream.Err(); err != nil {
		return err
	}
	p.out["grid.session.solo_task_us"] = 1000 * median(m.obs.latencies())
	return rg.hangup()
}

// probeRelay measures the hub alone: the one-way hop of a 64 B
// frame route -> hub -> worker, and the relay's throughput with 4 KiB
// frames on 8 routes at once.
func (p *prober) probeRelay() error {
	const routes = 8
	hub := grid.NewBrokerHub()
	defer hub.Close()
	workers := make([]transport.Conn, routes)
	for i := range workers {
		hubDown, worker := transport.Pipe(transport.WithBuffer(8))
		if err := grid.HelloWorker(worker, participantID(i)); err != nil {
			return err
		}
		if err := hub.Attach(hubDown); err != nil {
			return err
		}
		workers[i] = worker
	}
	sup, hubUp := transport.Pipe(transport.WithBuffer(8))
	attached := make(chan error, 1)
	go func() { attached <- hub.Attach(hubUp) }()
	mux, err := grid.OpenMux(sup, "probe")
	if err != nil {
		return err
	}
	defer mux.Close()
	if err := <-attached; err != nil {
		return err
	}
	conns := make([]transport.Conn, routes)
	for i := range conns {
		if conns[i], err = mux.OpenRoute(participantID(i)); err != nil {
			return err
		}
	}

	// Hop latency: echo on worker 0, ping through route 0.
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			m, err := workers[0].Recv()
			if err != nil || len(m.Payload) == 0 {
				return
			}
			if workers[0].Send(m) != nil {
				return
			}
		}
	}()
	small := make([]byte, 64)
	var pingErr error
	p.out["grid.broker.relay_hop_us"] = micros(timeOp(p.budget, func() { pingErr = roundTrip(conns[0], small, false) })) / 2
	// An empty frame tells the echo loop to stop.
	if err := conns[0].Send(transport.Message{Type: probeFrameType}); err != nil {
		return err
	}
	echo.Wait()
	if pingErr != nil {
		return pingErr
	}

	// Throughput: every route floods its worker; workers count and drop.
	block := make([]byte, 4096)
	var moved [routes]int
	var drains, floods sync.WaitGroup
	deadline := time.Now().Add(p.budget)
	start := time.Now()
	for i := 0; i < routes; i++ {
		drains.Add(1)
		go func(i int) {
			defer drains.Done()
			for {
				m, err := workers[i].Recv()
				if err != nil || len(m.Payload) == 0 {
					return
				}
				moved[i]++
			}
		}(i)
		floods.Add(1)
		go func(i int) {
			defer floods.Done()
			for time.Now().Before(deadline) {
				if conns[i].Send(transport.Message{Type: probeFrameType, Payload: block}) != nil {
					return
				}
			}
			_ = conns[i].Send(transport.Message{Type: probeFrameType})
		}(i)
	}
	floods.Wait()
	if mux.Failed() {
		// No stop marker can arrive on a dead link; unblock the drains.
		for _, w := range workers {
			_ = w.Close()
		}
	}
	drains.Wait()
	took := time.Since(start)
	total := 0
	for _, n := range moved {
		total += n
	}
	p.out["grid.broker.relay_MB_per_s"] = float64(total) * float64(len(block)) / 1e6 / took.Seconds()
	for _, w := range workers {
		_ = w.Close()
	}
	return nil
}
