// Benchmarks regenerating the paper's figures and quantitative claims, one
// per experiment id of DESIGN.md, plus micro-benchmarks of the protocol
// primitives. Run with:
//
//	go test -bench=. -benchmem
package uncheatgrid

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"uncheatgrid/internal/merkle"
)

// benchWorkload is the standard 64-bit-output synthetic function.
func benchWorkload(seed uint64) Workload {
	return NewSyntheticWorkload(seed, 1, 64)
}

func mustProver(b *testing.B, n int, f Workload, opts ...ProtocolOption) *Prover {
	b.Helper()
	p, err := NewProver(n, func(i uint64) []byte { return f.Eval(i) }, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkFig1ProveVerify measures the Figure 1 unit of work: one proof
// plus one verification on a 16-leaf tree.
func BenchmarkFig1ProveVerify(b *testing.B) {
	f := benchWorkload(1)
	prover := mustProver(b, 16, f)
	verifier, err := NewVerifier(prover.Commitment(), WithRand(rand.New(rand.NewSource(1))))
	if err != nil {
		b.Fatal(err)
	}
	check := RecomputeCheck(func(i uint64) []byte { return f.Eval(i) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := prover.Respond([]uint64{2})
		if err != nil {
			b.Fatal(err)
		}
		if err := verifier.Verify(Challenge{Indices: []uint64{2}}, resp, check); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2SampleSize measures the Eq. 3 sample-size computation across
// the Figure 2 sweep.
func BenchmarkFig2SampleSize(b *testing.B) {
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range ratios {
			if _, err := RequiredSamples(1e-4, r, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := RequiredSamples(1e-4, r, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3PartialProve measures the Section 3.3 storage-bounded proof
// across subtree heights: the cost dial the rco formula predicts.
func BenchmarkFig3PartialProve(b *testing.B) {
	f := benchWorkload(3)
	const n = 1 << 12
	for _, ell := range []int{0, 4, 8} {
		b.Run(fmt.Sprintf("ell=%d", ell), func(b *testing.B) {
			prover := mustProver(b, n, f, WithSubtreeHeight(ell))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prover.Respond([]uint64{uint64(i) % n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEq2MonteCarlo measures one full protocol round against a
// semi-honest cheater — the unit of the Eq. 2 Monte-Carlo experiment.
func BenchmarkEq2MonteCarlo(b *testing.B) {
	f := benchWorkload(4)
	check := RecomputeCheck(func(i uint64) []byte { return f.Eval(i) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		producer, err := NewSemiHonest(f, 0.5, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		prover, err := NewProver(256, func(x uint64) []byte { return producer.AppendClaim(nil, x) })
		if err != nil {
			b.Fatal(err)
		}
		verifier, err := NewVerifier(prover.Commitment(),
			WithRand(rand.New(rand.NewSource(int64(i)))))
		if err != nil {
			b.Fatal(err)
		}
		ch, err := verifier.Challenge(14)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := prover.Respond(ch.Indices)
		if err != nil {
			b.Fatal(err)
		}
		_ = verifier.Verify(ch, resp, check) // rejection expected: that is the experiment
	}
}

// BenchmarkCommCBS and BenchmarkCommNaive measure the end-to-end task
// exchange whose byte counts the comm experiment reports: the task's tagged
// upload bytes, which batch framing cannot move.
func BenchmarkCommCBS(b *testing.B) {
	benchScheme(b, SchemeSpec{Kind: SchemeCBS, M: 50})
}

// BenchmarkCommNaive is the O(n)-upload counterpart of BenchmarkCommCBS.
func BenchmarkCommNaive(b *testing.B) {
	benchScheme(b, SchemeSpec{Kind: SchemeNaive, M: 50})
}

// BenchmarkCommNICBS measures the non-interactive variant.
func BenchmarkCommNICBS(b *testing.B) {
	benchScheme(b, SchemeSpec{Kind: SchemeNICBS, M: 50, ChainIters: 1})
}

func benchScheme(b *testing.B, spec SchemeSpec) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		report, err := RunSim(SimConfig{
			Spec:     spec,
			Workload: "synthetic",
			Seed:     uint64(i),
			TaskSize: 1 << 12,
			Tasks:    1,
			Honest:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(report.TaskBytesRecv), "upload-B")
	}
}

// BenchmarkEq5Reroll measures the Section 4.2 re-rolling attack at r=0.5,
// m=4 (expected 16 tree rebuilds per success).
func BenchmarkEq5Reroll(b *testing.B) {
	chain, err := NewHashChain(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, err := Reroll(RerollConfig{
			F:           benchWorkload(uint64(i)),
			N:           64,
			Ratio:       0.5,
			M:           4,
			Chain:       chain,
			MaxAttempts: 1 << 20,
			Seed:        uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(result.Attempts), "attempts")
	}
}

// BenchmarkSchemesPopulation measures a full mixed-population simulation —
// the schemes comparison row generator.
func BenchmarkSchemesPopulation(b *testing.B) {
	for _, kind := range []SchemeKind{SchemeCBS, SchemeNICBS, SchemeNaive} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := RunSim(SimConfig{
					Spec:         SchemeSpec{Kind: kind, M: 33, ChainIters: 1},
					Workload:     "synthetic",
					Seed:         uint64(i),
					TaskSize:     1 << 10,
					Tasks:        4,
					Honest:       2,
					SemiHonest:   2,
					HonestyRatio: 0.5,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyVsRecompute times the factoring workload's two sides of
// the Step 4 check: computing f versus verifying a claimed output.
func BenchmarkVerifyVsRecompute(b *testing.B) {
	f := NewFactorWorkload(2004)
	outputs := make([][]byte, 64)
	for x := range outputs {
		outputs[x] = f.Eval(uint64(x))
	}
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.Eval(uint64(i % 64))
		}
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !f.VerifyOutput(uint64(i%64), outputs[i%64]) {
				b.Fatal("verification rejected a true output")
			}
		}
	})
}

// BenchmarkTreeBuild measures commitment construction — the participant's
// fixed overhead per task.
func BenchmarkTreeBuild(b *testing.B) {
	f := benchWorkload(5)
	for _, n := range []int{1 << 10, 1 << 14} {
		values := make([][]byte, n)
		for i := range values {
			values[i] = f.Eval(uint64(i))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := merkle.Build(values); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMerkleBuildParallel compares the sequential and parallel tree
// builders at n = 2^16 and 2^18 — the bottom layer of the concurrent
// verification engine. The parallel root is bit-identical to the
// sequential one; only the construction schedule differs. Allocation
// counts are part of the contract: the arena-backed build allocates
// O(tree depth), not O(n).
func BenchmarkMerkleBuildParallel(b *testing.B) {
	f := benchWorkload(6)
	for _, n := range []int{1 << 16, 1 << 18} {
		values := make([][]byte, n)
		for i := range values {
			values[i] = f.Eval(uint64(i))
		}
		at := func(i int) []byte { return values[i] }
		b.Run(fmt.Sprintf("n=%d/sequential", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := merkle.BuildFunc(n, at); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, p := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("n=%d/parallel-p%d", n, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := merkle.BuildFunc(n, at,
						merkle.WithParallelism(p)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMerkleStreamBuild measures the one-pass commitment stream — the
// participant path that never holds the leaf set in memory. Add is
// allocation-free; build-wide allocations stay O(depth).
func BenchmarkMerkleStreamBuild(b *testing.B) {
	f := benchWorkload(6)
	for _, n := range []int{1 << 16, 1 << 18} {
		values := make([][]byte, n)
		for i := range values {
			values[i] = f.Eval(uint64(i))
		}
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sb, err := merkle.NewStreamBuilder(n)
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range values {
					if err := sb.Add(v); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sb.Root(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelinedSession measures a window-8 session carrying 8 tasks on
// one connection — the transport-level batching experiment. The latency
// variant models a real link where every frame pays a fixed one-way send
// delay: pipelining overlaps the waits and batching shares frames across
// tasks.
func BenchmarkPipelinedSession(b *testing.B) {
	const tasks = 8
	const window = 8
	const taskSize = 1 << 10
	for _, latency := range []time.Duration{0, 500 * time.Microsecond} {
		b.Run(fmt.Sprintf("latency=%s/session-w%d", latency, window), func(b *testing.B) {
			var wire int64
			for i := 0; i < b.N; i++ {
				supConn, partConn := Pipe()
				p, err := NewParticipant("p", HonestFactory)
				if err != nil {
					b.Fatal(err)
				}
				serveErr := make(chan error, 1)
				go func() { serveErr <- p.Serve(WithLatency(partConn, latency)) }()
				sup, err := NewSupervisor(SupervisorConfig{
					Spec: SchemeSpec{Kind: SchemeCBS, M: 20},
					Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				sess, err := sup.OpenSession(WithLatency(supConn, latency), window)
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for j := 0; j < tasks; j++ {
					task := Task{
						ID: uint64(j), Start: uint64(j) * taskSize, N: taskSize,
						Workload: "synthetic", Seed: 7,
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := sess.RunTask(task); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
				if err := sess.Close(); err != nil {
					b.Fatal(err)
				}
				wire += supConn.Stats().BytesSent() + supConn.Stats().BytesRecv()
				_ = supConn.Close()
				if err := <-serveErr; err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*tasks)/b.Elapsed().Seconds(), "tasks/s")
			b.ReportMetric(float64(wire)/float64(int64(b.N)*tasks), "wire-B/task")
		})
	}
}

// BenchmarkResumedSession is the fault-recovery row: BenchmarkPipelinedSession's
// 8-task workload on one connection, but over a link that garbles frames. Corruption is caught by
// the batch checksum, the connection is quarantined, and in-flight tasks
// resume mid-protocol on a redialed replacement — the metric shows what
// reconnect-and-resume costs relative to the clean session run.
func BenchmarkResumedSession(b *testing.B) {
	const tasks = 8
	const window = 8
	const taskSize = 1 << 10
	for _, garble := range []float64{0, 0.05} {
		b.Run(fmt.Sprintf("garble=%g", garble), func(b *testing.B) {
			var reconnects int64
			for i := 0; i < b.N; i++ {
				p, err := NewParticipant("p", HonestFactory)
				if err != nil {
					b.Fatal(err)
				}
				var mu sync.Mutex
				var supConns []Conn
				var serveErrs []chan error
				dial := func() Conn {
					supConn, partConn := Pipe()
					var sup, part Conn = supConn, partConn
					mu.Lock()
					attempt := len(supConns)
					mu.Unlock()
					if garble > 0 {
						sup = WithFaults(sup, FaultPlan{GarbleProb: garble, Seed: int64(i*1000 + attempt*2)})
						part = WithFaults(part, FaultPlan{GarbleProb: garble, Seed: int64(i*1000 + attempt*2 + 1)})
					}
					ch := make(chan error, 1)
					go func() { ch <- p.Serve(part) }()
					mu.Lock()
					supConns = append(supConns, sup)
					serveErrs = append(serveErrs, ch)
					mu.Unlock()
					return sup
				}
				pool, err := NewSupervisorPool(SupervisorConfig{
					Spec: SchemeSpec{Kind: SchemeCBS, M: 20},
					Seed: int64(i),
				}, window)
				if err != nil {
					b.Fatal(err)
				}
				taskList := make([]Task, tasks)
				for j := range taskList {
					taskList[j] = Task{
						ID: uint64(j), Start: uint64(j) * taskSize, N: taskSize,
						Workload: "synthetic", Seed: 7,
					}
				}
				stream, err := pool.RunTaskSource(context.Background(),
					[]Conn{dial()}, SliceTaskSource(taskList), window,
					WithStreamRedial(func(Conn) (Conn, error) { return dial(), nil }),
					WithStreamMaxReconnects(1000),
					WithStreamRecvTimeout(2*time.Second))
				if err != nil {
					b.Fatal(err)
				}
				count := 0
				for so := range stream.Outcomes() {
					count++
					if !so.Outcome.Verdict.Accepted {
						b.Fatalf("honest task %d rejected: %s", so.Outcome.Task.ID, so.Outcome.Verdict.Reason)
					}
				}
				if err := stream.Err(); err != nil {
					b.Fatal(err)
				}
				if count != tasks {
					b.Fatalf("completed %d tasks, want %d", count, tasks)
				}
				mu.Lock()
				reconnects += int64(len(supConns) - 1)
				for _, c := range supConns {
					_ = c.Close()
				}
				errs := serveErrs
				mu.Unlock()
				for _, ch := range errs {
					if err := <-ch; err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N*tasks)/b.Elapsed().Seconds(), "tasks/s")
			b.ReportMetric(float64(reconnects)/float64(b.N), "reconnects/op")
		})
	}
}

// BenchmarkReplicatedDoubleCheck measures the double-check scheme on R
// connections as a replicated window-4 stream: every replica is an ordinary
// upload inside its connection's window, and a group's comparison runs when
// its last replica settles, holding up no exchange. The latency variant
// charges every frame a fixed send delay.
func BenchmarkReplicatedDoubleCheck(b *testing.B) {
	const tasks = 6
	const replicas = 3
	const window = 4
	const taskSize = 1 << 10
	for _, latency := range []time.Duration{0, 500 * time.Microsecond} {
		b.Run(fmt.Sprintf("latency=%s/stream-w%d", latency, window), func(b *testing.B) {
			var wire int64
			for i := 0; i < b.N; i++ {
				conns := make([]Conn, replicas)
				raw := make([]Conn, replicas)
				serveErrs := make([]chan error, replicas)
				for j := 0; j < replicas; j++ {
					supConn, partConn := Pipe(WithPipeBuffer(8))
					p, err := NewParticipant(fmt.Sprintf("p%d", j), HonestFactory)
					if err != nil {
						b.Fatal(err)
					}
					serveErrs[j] = make(chan error, 1)
					go func(ch chan error, c Conn) { ch <- p.Serve(c) }(serveErrs[j], WithLatency(partConn, latency))
					raw[j] = supConn
					conns[j] = WithLatency(supConn, latency)
				}
				taskList := make([]Task, tasks)
				for j := range taskList {
					taskList[j] = Task{
						ID: uint64(j), Start: uint64(j) * taskSize, N: taskSize,
						Workload: "synthetic", Seed: 7,
					}
				}
				// Size the worker bound like RunSim does (connections x
				// window): an exchange holds a worker slot across its
				// link-latency stalls, so the default (NumCPU) would
				// serialize the stream.
				pool, err := NewSupervisorPool(SupervisorConfig{
					Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1},
					Seed: int64(i),
				}, replicas*window)
				if err != nil {
					b.Fatal(err)
				}
				stream, err := pool.RunTaskSource(context.Background(), conns, SliceTaskSource(taskList), window,
					WithStreamReplicas(replicas))
				if err != nil {
					b.Fatal(err)
				}
				count := 0
				for so := range stream.Outcomes() {
					count++
					if !so.Outcome.Verdict.Accepted {
						b.Errorf("honest replica rejected: %s", so.Outcome.Verdict.Reason)
					}
				}
				if err := stream.Err(); err != nil {
					b.Fatal(err)
				}
				if count != tasks*replicas {
					b.Fatalf("streamed %d replica outcomes, want %d", count, tasks*replicas)
				}
				for _, c := range raw {
					wire += c.Stats().BytesSent() + c.Stats().BytesRecv()
					_ = c.Close()
				}
				for _, ch := range serveErrs {
					if err := <-ch; err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N*tasks)/b.Elapsed().Seconds(), "tasks/s")
			b.ReportMetric(float64(wire)/float64(int64(b.N)*tasks), "wire-B/task")
		})
	}
}

// BenchmarkBrokerPipeline measures the GRACE relay hop: the same pipelined
// NI-CBS workload run direct versus through a BrokerHub. The topology models the GRACE deployment — the
// supervisor↔broker leg is the WAN hop where every frame send pays a 500µs
// link delay, the broker↔participant leg is the cheap grid-site LAN — so
// direct and brokered runs cross one delayed hop per frame and are directly
// comparable. Relay-hop batching shows up in the relayed-frames/op metric:
// LAN-fast participant bursts queue at the hub behind the WAN sends and are
// re-coalesced, so the hub forwards the same tagged traffic in fewer
// delayed frames.
func BenchmarkBrokerPipeline(b *testing.B) {
	const tasks = 16
	const window = 16
	const taskSize = 1 << 10
	const latency = 500 * time.Microsecond
	modes := []struct {
		name   string
		broker bool
	}{
		{"direct", false},
		{"broker-batched", true},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			var relayed int64
			for i := 0; i < b.N; i++ {
				p, err := NewParticipant("p", HonestFactory)
				if err != nil {
					b.Fatal(err)
				}
				serveErr := make(chan error, 1)
				var supConn Conn
				var hub *BrokerHub
				var mux *SupervisorMux
				if mode.broker {
					hub = NewBrokerHub()
					hubDown, partConn := Pipe(WithPipeBuffer(8))
					if err := HelloWorker(partConn, "p"); err != nil {
						b.Fatal(err)
					}
					if err := hub.Attach(hubDown); err != nil {
						b.Fatal(err)
					}
					go func() { serveErr <- p.Serve(partConn) }()
					sc, hubUp := Pipe(WithPipeBuffer(8))
					if mux, err = OpenMux(WithLatency(sc, latency), "bench-sup"); err != nil {
						b.Fatal(err)
					}
					if err := hub.Attach(WithLatency(hubUp, latency)); err != nil {
						b.Fatal(err)
					}
					if supConn, err = mux.OpenRoute("p"); err != nil {
						b.Fatal(err)
					}
				} else {
					sc, partConn := Pipe(WithPipeBuffer(8))
					go func() { serveErr <- p.Serve(WithLatency(partConn, latency)) }()
					supConn = WithLatency(sc, latency)
				}
				sup, err := NewSupervisor(SupervisorConfig{
					Spec: SchemeSpec{Kind: SchemeNICBS, M: 20, ChainIters: 1},
					Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				sess, err := sup.OpenSession(supConn, window)
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for j := 0; j < tasks; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						outcome, err := sess.RunTask(Task{
							ID: uint64(j), Start: uint64(j) * taskSize, N: taskSize,
							Workload: "synthetic", Seed: 7,
						})
						if err != nil {
							b.Error(err)
							return
						}
						if !outcome.Verdict.Accepted {
							b.Errorf("honest task %d rejected: %s", j, outcome.Verdict.Reason)
						}
					}(j)
				}
				wg.Wait()
				if err := sess.Close(); err != nil {
					b.Fatal(err)
				}
				_ = supConn.Close()
				if err := <-serveErr; err != nil {
					b.Fatal(err)
				}
				if hub != nil {
					if err := mux.Close(); err != nil {
						b.Fatal(err)
					}
					if err := hub.Close(); err != nil {
						b.Fatal(err)
					}
					relayed += hub.Snapshot().RelayedMsgs
				}
			}
			b.ReportMetric(float64(b.N*tasks)/b.Elapsed().Seconds(), "tasks/s")
			if mode.broker {
				b.ReportMetric(float64(relayed)/float64(b.N), "relayed-frames/op")
			}
		})
	}
}

// BenchmarkChunkedUpload measures a naive-scheme task whose full result
// upload exceeds MaxFrameBytes: 2^21 password digests encode to ~69 MiB and
// must travel as an ordered chunk stream, here one exchange at a time (a
// window-1 session). Byte accounting stays exact — the outcome's tagged
// receive total plus the session's framing overhead equals the connection
// counter.
func BenchmarkChunkedUpload(b *testing.B) {
	const n = 1 << 21
	task := Task{ID: 1, N: n, Workload: "password", Seed: 3}
	for i := 0; i < b.N; i++ {
		supConn, partConn := Pipe(WithPipeBuffer(8))
		p, err := NewParticipant("p", HonestFactory)
		if err != nil {
			b.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- p.Serve(partConn) }()
		sup, err := NewSupervisor(SupervisorConfig{
			Spec: SchemeSpec{Kind: SchemeNaive, M: 8},
			Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := sup.OpenSession(supConn, 1)
		if err != nil {
			b.Fatal(err)
		}
		outcome, err := sess.RunTask(task)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
		if !outcome.Verdict.Accepted {
			b.Fatalf("honest upload rejected: %s", outcome.Verdict.Reason)
		}
		if outcome.BytesRecv <= MaxFrameBytes {
			b.Fatalf("upload of %d bytes does not exceed MaxFrameBytes — not a chunked case", outcome.BytesRecv)
		}
		if _, overhead := sess.OverheadBytes(); outcome.BytesRecv+overhead != supConn.Stats().BytesRecv() {
			b.Fatalf("byte accounting drifted: outcome %d + overhead %d, connection %d",
				outcome.BytesRecv, overhead, supConn.Stats().BytesRecv())
		}
		b.SetBytes(outcome.BytesRecv)
		_ = supConn.Close()
		if err := <-serveErr; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashChain measures the NI-CBS sample derivation as the Eq. 5
// cost dial k grows.
func BenchmarkHashChain(b *testing.B) {
	root := []byte("a 32-byte-ish commitment root...")
	for _, k := range []int{1, 16, 256} {
		chain, err := NewHashChain(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chain.SampleIndices(root, 10, 1<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBroker1kRoutes scales the hub to 1000 concurrent supervisor
// routes sharing ONE physical supervisor link as tagged sub-streams with
// per-route credit flow control. Each route binds a registered participant
// and runs one NI-CBS task, so the measured traffic crosses the full relay
// path. The goroutines/route metric is sampled after every route is bound
// and includes the per-worker floor (one Serve goroutine plus the hub's two
// worker-link loops); the shared link adds two hub loops regardless of
// route count.
func BenchmarkBroker1kRoutes(b *testing.B) {
	const routes = 1000
	const taskSize = 256
	b.Run("muxed-one-link", func(b *testing.B) {
		var relayed int64
		var goroutinesPerRoute float64
		var creditWindowBytes float64
		for i := 0; i < b.N; i++ {
			base := runtime.NumGoroutine()
			hub := NewBrokerHub()
			serveErrs := make([]chan error, routes)
			partConns := make([]Conn, routes)
			for j := 0; j < routes; j++ {
				p, err := NewParticipant(fmt.Sprintf("w-%d", j), HonestFactory)
				if err != nil {
					b.Fatal(err)
				}
				hubDown, partConn := Pipe(WithPipeBuffer(8))
				if err := HelloWorker(partConn, p.ID()); err != nil {
					b.Fatal(err)
				}
				if err := hub.Attach(hubDown); err != nil {
					b.Fatal(err)
				}
				serveErrs[j] = make(chan error, 1)
				partConns[j] = partConn
				go func(j int, p *Participant) { serveErrs[j] <- p.Serve(partConns[j]) }(j, p)
			}
			conns := make([]Conn, routes)
			sc, hubUp := Pipe(WithPipeBuffer(8))
			mux, err := OpenMux(sc, "bench-sup")
			if err != nil {
				b.Fatal(err)
			}
			if err := hub.Attach(hubUp); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < routes; j++ {
				if conns[j], err = mux.OpenRoute(fmt.Sprintf("w-%d", j)); err != nil {
					b.Fatal(err)
				}
			}
			for bound := 0; bound < routes; time.Sleep(time.Millisecond) {
				bound = 0
				for _, st := range hub.Snapshot().Routes {
					bound += int(st.Binds)
				}
			}
			goroutinesPerRoute += float64(runtime.NumGoroutine()-base) / routes
			sup, err := NewSupervisor(SupervisorConfig{
				Spec: SchemeSpec{Kind: SchemeNICBS, M: 8, ChainIters: 1},
				Seed: int64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, routes)
			for j := 0; j < routes; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					sess, err := sup.OpenSession(conns[j], 2)
					if err != nil {
						errs <- fmt.Errorf("route %d open: %w", j, err)
						return
					}
					outcome, err := sess.RunTask(Task{
						ID: uint64(j), Start: uint64(j) * taskSize, N: taskSize,
						Workload: "synthetic", Seed: 7,
					})
					if err != nil {
						errs <- fmt.Errorf("route %d task: %w", j, err)
						return
					}
					if !outcome.Verdict.Accepted {
						errs <- fmt.Errorf("route %d: honest task rejected: %s", j, outcome.Verdict.Reason)
						return
					}
					errs <- sess.Close()
				}(j)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			// Adaptive credit sizing is the hub's memory bound at this
			// fan-out: the live per-route windows sum far below the
			// static routes x 256 KiB ceiling of fixed windows.
			creditWindowBytes += float64(hub.Snapshot().CreditWindowBytes)
			for _, c := range conns {
				_ = c.Close()
			}
			if err := mux.Close(); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < routes; j++ {
				if err := <-serveErrs[j]; err != nil {
					b.Fatalf("participant w-%d serve: %v", j, err)
				}
			}
			if err := hub.Close(); err != nil {
				b.Fatal(err)
			}
			relayed += hub.Snapshot().RelayedMsgs
		}
		b.ReportMetric(goroutinesPerRoute/float64(b.N), "goroutines/route")
		b.ReportMetric(float64(relayed)/b.Elapsed().Seconds(), "frames-relayed/s")
		b.ReportMetric(float64(b.N*routes)/b.Elapsed().Seconds(), "tasks/s")
		b.ReportMetric(creditWindowBytes/float64(b.N*routes), "credit-window-B/route")
	})
}
