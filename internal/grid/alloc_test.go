//go:build !race

package grid

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"uncheatgrid/internal/core"
	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// commitPathAllocBound is what one honest NI-CBS commit-and-respond may
// allocate, whatever the task size, once the execution's commitment kit has
// served a task: the chain walk (hash state, chain state, indices), the
// three payloads and the report list's growth — 7 objects measured at
// n = 1024 and 11 at n = 8192, where the reports outgrow more size classes —
// plus 3. The tree, the claim scratch and the multiproof's slabs are the
// kit's and cost nothing (21 and 25 when each task bought them). No term in
// n — f's outputs are appended into the scratch and copied into the slab —
// and none in m.
const commitPathAllocBound = 14

// TestCommitPathAllocs pins the participant's commit path to that constant
// at two task sizes, so a per-leaf allocation cannot hide inside a slack
// that grows with n. Excluded from race builds, whose runtime allocates on
// its own.
func TestCommitPathAllocs(t *testing.T) {
	spec := SchemeSpec{Kind: SchemeNICBS, M: 8, ChainIters: 1}
	chain, err := hashchain.New(spec.ChainIters)
	if err != nil {
		t.Fatalf("hashchain.New: %v", err)
	}
	for _, n := range []uint64{1024, 8192} {
		exec, _ := newCommitExecution(t, n, spec, nil)
		conn := &scriptConn{}
		allocs := testing.AllocsPerRun(10, func() {
			if err := exec.runCBS(conn, true, chain, nil); err != nil {
				t.Fatalf("runCBS: %v", err)
			}
		})
		if allocs > commitPathAllocBound {
			t.Errorf("NI-CBS commit-and-respond over %d inputs allocates %.0f objects, want <= %d at every n",
				n, allocs, commitPathAllocBound)
		}
	}
}

// TestVerifyEvalsZeroAlloc pins the supervisor's side of the same contract:
// the m recomputations of one task's output check land in the task's one
// scratch buffer, so after the first none of them allocates.
func TestVerifyEvalsZeroAlloc(t *testing.T) {
	const m = 32
	task := Task{ID: 1, Start: 1000, N: 1 << 14, Workload: "synthetic", Seed: 11}
	f, err := workload.New(task.Workload, task.Seed)
	if err != nil {
		t.Fatalf("workload.New: %v", err)
	}
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: m}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	at, err := sup.NewAttempt(task)
	if err != nil {
		t.Fatalf("NewAttempt: %v", err)
	}
	check := at.pt.checkOutput
	claimed := make([][]byte, m)
	for k := range claimed {
		claimed[k] = f.Eval(task.Start + uint64(k)*500)
	}
	verify := func() {
		for k, value := range claimed {
			if err := check(uint64(k)*500, value); err != nil {
				t.Fatalf("check(%d): %v", k, err)
			}
		}
	}
	verify() // the first evaluation sizes the scratch
	if allocs := testing.AllocsPerRun(10, verify); allocs != 0 {
		t.Fatalf("checking %d samples allocates %.1f objects after the first, want 0", m, allocs)
	}
}

// allocatedBytes reports the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGridDecodersCheckCountsBeforeAllocating feeds every counted decoder a
// payload that declares as many elements as its limit allows and then ends.
// Each count is bounded by the bytes that remain before anything is sized
// from it, so the refusal costs the error and nothing else; sized from the
// bare count, the 4-byte results, indices and reports payloads below made
// the receiver allocate 1,536 MB, 512 MB and 384 MB before it refused them.
func TestGridDecodersCheckCountsBeforeAllocating(t *testing.T) {
	count := func(n uint64, prefix ...byte) []byte { return binary.AppendUvarint(prefix, n) }
	assign := encodeAssignment(assignment{Task: Task{ID: 1, N: 8, Workload: "synthetic"}, Spec: SchemeSpec{Kind: SchemeRinger, M: 1}})
	batch := count(maxBatchMsgs, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(batch, crc32.ChecksumIEEE(batch[batchChecksumLen:]))
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"results", count(maxTaskSize), func(p []byte) error { _, err := decodeResults(p); return err }},
		{"indices", count(maxTaskSize), func(p []byte) error { _, err := decodeIndices(p); return err }},
		{"reports", count(1 << 24), func(p []byte) error { _, err := decodeReports(p); return err }},
		{"assignment ringer images", count(maxRingerImages, assign[:len(assign)-1]...),
			func(p []byte) error { _, err := decodeAssignment(p); return err }},
		{"batch", batch, func(p []byte) error { _, err := decodeBatch(nil, p); return err }},
		{"routed", count(maxRoutedEntries), func(p []byte) error { _, err := decodeRouted(nil, p); return err }},
		{"window commit tasks", count(maxWindowCommitTasks, 0, 1, 0xaa),
			func(p []byte) error { _, err := decodeWindowCommit(p); return err }},
	} {
		var err error
		spent := allocatedBytes(func() { err = tc.decode(tc.payload) })
		if !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: a count with nothing behind it decoded with %v, want ErrBadPayload", tc.name, err)
		}
		if spent > 1024 {
			t.Errorf("%s: refusing a %d-byte payload allocated %d bytes, want < 1 kB", tc.name, len(tc.payload), spent)
		}
	}
}

// TestSessionCodecAllocs pins what the session layer's codecs cost per
// message: a batch frame decodes into the reader's scratch with one
// allocation — the carve its sub-payloads are copied into — however many
// messages it carries; the per-task decoders read their payload in place
// (a registered workload's name is interned, an empty reason or report list
// is no object); and every fixed-shape encoder is one exact-size allocation.
func TestSessionCodecAllocs(t *testing.T) {
	a := assignment{
		Task: Task{ID: 300, Start: 1 << 20, N: 64, Workload: "synthetic", Seed: 9},
		Spec: SchemeSpec{Kind: SchemeCBS, M: 8},
	}
	for _, k := range []int{1, 8} {
		msgs := make([]taggedMsg, k)
		for i := range msgs {
			msgs[i] = taggedMsg{TaskID: uint64(i), Type: msgCommit, Payload: bytes.Repeat([]byte{byte(i)}, 40)}
		}
		frame := bytes.Clone(encodeBatch(msgs))
		scratch := make([]taggedMsg, 0, k)
		if allocs := testing.AllocsPerRun(100, func() {
			var err error
			if scratch, err = decodeBatch(scratch[:0], frame); err != nil || len(scratch) != k {
				t.Fatalf("decodeBatch: %d messages, %v", len(scratch), err)
			}
		}); allocs > 1 {
			t.Errorf("decodeBatch of %d messages allocates %.0f objects, want the one carve", k, allocs)
		}
	}
	assignPayload, verdictPayload, reportsPayload := encodeAssignment(a), encodeVerdict(Verdict{Accepted: true}), encodeReports(nil)
	resume := resumeMsg{Assignment: a, HaveCommit: true, Challenge: []byte{8, 1, 2, 3, 4, 5, 6, 7, 8}}
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"decodeAssignment", 0, func() { _, _ = decodeAssignment(assignPayload) }},
		{"decodeVerdict", 0, func() { _, _ = decodeVerdict(verdictPayload) }},
		{"decodeReports of none", 0, func() { _, _ = decodeReports(reportsPayload) }},
		{"encodeAssignment", 1, func() { _ = encodeAssignment(a) }},
		{"encodeResume", 1, func() { _ = encodeResume(resume) }},
		{"encodeVerdict", 1, func() { _ = encodeVerdict(Verdict{Accepted: true}) }},
		{"encodeReports of none", 1, func() { _ = encodeReports(nil) }},
		{"encodeChunk", 1, func() { _ = encodeChunk(resultChunk{Seq: 3, Data: assignPayload}) }},
		{"encodeCheckpoint", 1, func() { _ = encodeCheckpoint(checkpointMsg{Seq: 1 << 30}) }},
		{"encodeCredit", 1, func() { _ = encodeCredit(creditMsg{Route: 7, Bytes: 1 << 15}) }},
		{"encodeHello", 1, func() { _ = encodeHello(helloMsg{Role: helloRoleOpen, Worker: "p3", Route: 3}) }},
		// The frame encoders draw from the payload pool; recycled the way
		// a pipe's receiver does, the frame costs nothing.
		{"encodeBatch", 0, func() {
			transport.RecyclePayload(encodeBatch([]taggedMsg{{TaskID: 1, Type: msgAssign, Payload: assignPayload}}))
		}},
		{"encodeRouted", 0, func() {
			transport.RecyclePayload(encodeRouted([]routedEntry{{Route: 1, Type: msgBatch, Payload: assignPayload}}))
		}},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs > tc.max {
			t.Errorf("%s allocates %.0f objects, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// taskFixedCostAllocBound is what one honest CBS task of n = 64, m = 8 may
// allocate end to end — supervisor session, participant, both codecs — over
// a pipe: the measured 14 plus 2. It is the benchmark's allocs_per_task on
// tcp_small as a unit test, less what only the stream dispatcher and a TCP
// link add. What is left is per task by nature:
//   - the payloads a writer owns until flush: assignment, commitment,
//     challenge and proofs;
//   - decodeBatch's carve of each frame that arrives (four at window 1);
//   - taskAttempt and TaskOutcome, because the caller keeps the outcome;
//   - the producer the ProducerFactory builds.
//
// Everything else is lent by the connection or shared by the session: the
// kits (commitKit, auditKit), the participant's task slot and its executor,
// the workload and its screener, the supervisor's randomness stream, the
// supervisor's task connection, and the storage the commitment and the
// challenge decode into. (The bound was 27 while each task made those ten
// objects itself, and 100 before the session layer read in place.)
const taskFixedCostAllocBound = 16

// TestTaskFixedCostAllocs runs that task over one Session, both ends in
// this process.
func TestTaskFixedCostAllocs(t *testing.T) {
	p, err := NewParticipant("w", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supSide, partSide := transport.Pipe()
	served := make(chan error, 1)
	go func() { served <- p.Serve(partSide) }()
	allocs := taskFixedCostAllocs(t, supSide)
	supSide.Close()
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
	if allocs > taskFixedCostAllocBound {
		t.Errorf("one CBS task of 64 inputs and 8 samples allocates %.0f objects end to end, want <= %d",
			allocs, taskFixedCostAllocBound)
	}
	t.Logf("%.0f objects per task", allocs)
}

// TestTaskFixedCostAllocsTCP runs the same task over a loopback socket.
// Frame buffers circulate in both directions there — a receiver recycles
// what it decoded, a sender what the kernel has copied — so a real link may
// cost the socket's own bookkeeping over the pipe bound and no longer an
// allocation per frame sent (57 objects per task before the sender's half of
// the loop closed, the pipe's count after).
func TestTaskFixedCostAllocsTCP(t *testing.T) {
	supSide, shutdown := tcpSessionFixture(t)
	allocs := taskFixedCostAllocs(t, supSide)
	shutdown()
	if allocs > taskFixedCostAllocBound+2 {
		t.Errorf("one CBS task of 64 inputs and 8 samples allocates %.0f objects end to end over TCP, want <= %d",
			allocs, taskFixedCostAllocBound+2)
	}
	t.Logf("%.0f objects per task", allocs)
}

// taskFixedCostAllocs reports what one such task allocates on a window-1
// session over supSide, whose other end a participant is serving.
func taskFixedCostAllocs(t *testing.T, supSide transport.Conn) float64 {
	t.Helper()
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(supSide, 1)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	var id uint64
	allocs := testing.AllocsPerRun(200, func() {
		id++
		outcome, err := sess.RunTask(Task{ID: id, Start: id * 64, N: 64, Workload: "synthetic", Seed: 11})
		if err != nil || !outcome.Verdict.Accepted {
			t.Fatalf("task %d: %+v, %v", id, outcome, err)
		}
	})
	if err := sess.Close(); err != nil {
		t.Errorf("session close: %v", err)
	}
	return allocs
}

// TestKitSteadyStateAllocs pins what the kits are for, at the two task sizes
// the benchmark commits: once a kit has served a task, the participant's
// rebuild of the tree, its multiproof and the marshaled response cost the
// one payload, at n = 64 and at n = 16384 alike; and the supervisor's audit —
// verifier reset, response decoded in place, root reconstructed, every
// sample's output checked — costs nothing beyond the payload it was handed.
func TestKitSteadyStateAllocs(t *testing.T) {
	const m = 8
	f, err := workload.New("synthetic", 11)
	if err != nil {
		t.Fatalf("workload.New: %v", err)
	}
	for _, n := range []int{64, 1 << 14} {
		var commit commitKit
		var audit auditKit
		run := func(dst []byte, lo int, ends []int) []byte {
			return f.AppendEvalBatch(dst, uint64(lo), ends)
		}
		check := func(i uint64, output []byte) error {
			audit.evalBuf = f.AppendEval(audit.evalBuf[:0], i)
			if !bytes.Equal(audit.evalBuf, output) {
				return errors.New("wrong output")
			}
			return nil
		}
		rng := rand.New(rand.NewSource(int64(n)))
		var payload []byte
		task := func() {
			if err := commit.prover.Reset(n, run); err != nil {
				t.Fatalf("Prover.Reset: %v", err)
			}
			if err := audit.verifier.Reset(commit.prover.Commitment(), core.WithRand(rng)); err != nil {
				t.Fatalf("Verifier.Reset: %v", err)
			}
			if audit.challenge, err = audit.verifier.AppendChallenge(audit.challenge[:0], m); err != nil {
				t.Fatalf("AppendChallenge: %v", err)
			}
			if err := commit.prover.RespondInto(&commit.resp, &commit.scratch, audit.challenge); err != nil {
				t.Fatalf("RespondInto: %v", err)
			}
			if payload, err = commit.resp.MarshalBinary(); err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			var resp core.Response
			if err := resp.Proof.UnmarshalAliasedInto(&audit.scratch, payload); err != nil {
				t.Fatalf("UnmarshalAliasedInto: %v", err)
			}
			if err := audit.verifier.Verify(core.Challenge{Indices: audit.challenge}, &resp, check); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		}
		task() // the warm-up task sizes both kits
		if allocs := testing.AllocsPerRun(5, task); allocs != 1 {
			t.Errorf("n=%d: a task on warm kits allocates %.0f objects on both sides, want 1 (the response payload)", n, allocs)
		}
	}
}

// TestDispatcherLeaseAllocs pins the stream dispatcher's side: a claim's
// lease comes back to the dispatcher when its worker releases it, so
// claiming, starting and completing a task on a warm dispatcher allocates
// nothing.
func TestDispatcherLeaseAllocs(t *testing.T) {
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}}, 1)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	_, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newDispatcher(pool, &streamConfig{}, SliceTaskSource(nil), 1, cancel)
	conn, _ := transport.Pipe()
	slot := newConnSlot(conn, nil)
	task := poolTasks(1, 64)[0]
	cycle := func() {
		d.mu.Lock()
		l := d.leaseLocked(ticket{task: task}, slot)
		d.mu.Unlock()
		if !d.start(l) {
			t.Fatal("lease did not start")
		}
		d.complete(l, false)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("claim, start and complete allocate %.1f objects on a warm dispatcher, want 0", allocs)
	}
}
