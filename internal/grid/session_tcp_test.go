package grid

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"uncheatgrid/internal/transport"
)

// This file tests the session writer's flush rule (batchWriter's comment
// states it) where it differs from the pipe case every other session test
// runs: on a link whose Send is a system call.

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(tb testing.TB) (dialed, accepted transport.Conn) {
	tb.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	// The kernel completes the handshake against the listen backlog, so the
	// dial returns before anybody accepts.
	if dialed, err = transport.Dial(l.Addr()); err != nil {
		tb.Fatalf("Dial: %v", err)
	}
	if accepted, err = l.Accept(); err != nil {
		dialed.Close()
		tb.Fatalf("Accept: %v", err)
	}
	return dialed, accepted
}

// tcpSessionFixture is sessionFixture over a loopback socket: one honest
// participant serving the accepted end, the dialed end returned for the
// supervisor.
func tcpSessionFixture(tb testing.TB) (transport.Conn, func()) {
	tb.Helper()
	p, err := NewParticipant("p", HonestFactory)
	if err != nil {
		tb.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := tcpPair(tb)
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(partConn) }()
	return supConn, func() {
		tb.Helper()
		_ = supConn.Close()
		if err := <-serveErr; err != nil {
			tb.Errorf("participant serve: %v", err)
		}
		_ = partConn.Close()
	}
}

// TestSessionCoalescesOverTCP is the batching test with nothing injected:
// one session over a loopback socket, window 8, and the supervisor's
// endpoint must move well under one frame per message — a CBS task is seven
// messages, and a writer that flushes each the moment it wakes moved 5.9
// frames per task here. The bound is loose on purpose: under -race and on a
// loaded runner queues only get deeper, which coalesces more, not less. The
// same run keeps every verdict and TestSessionByteAccountingExact's identity.
func TestSessionCoalescesOverTCP(t *testing.T) {
	const tasks = 400
	conn, shutdown := tcpSessionFixture(t)
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(conn, 8)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	outcomes := runSessionTasks(t, sess, poolTasks(tasks, 64))
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}

	for _, o := range outcomes {
		if !o.Verdict.Accepted {
			t.Errorf("honest task %d rejected: %s", o.Task.ID, o.Verdict.Reason)
		}
	}
	assertSessionLedger(t, conn, sess, outcomes)
	st := conn.Stats()
	perTask := float64(st.MsgsSent()+st.MsgsRecv()) / tasks
	t.Logf("%.2f frames per task", perTask)
	if perTask > 4.5 {
		t.Errorf("%.2f frames per task at window 8 over TCP, want <= 4.5: the writers are not coalescing", perTask)
	}
	shutdown()
}

// recordingConn is a link that goes nowhere: Send decodes the batch frame it
// is handed (before returning, as a copying link must) and keeps the
// messages. Its Stats are another connection's, which is how every real
// wrapper — fault injection, latency, the benchmark's tracer — presents the
// link it wraps.
type recordingConn struct {
	stats  *transport.Stats
	frames [][]taggedMsg
}

func (c *recordingConn) Send(m transport.Message) error {
	msgs, err := decodeBatch(nil, m.Payload)
	c.frames = append(c.frames, msgs)
	return err
}
func (c *recordingConn) Recv() (transport.Message, error) { return transport.Message{}, io.EOF }
func (c *recordingConn) Close() error                     { return nil }
func (c *recordingConn) Stats() *transport.Stats          { return c.stats }

// TestBatchWriterYieldsOnlyOnCopyingLinks scripts the flush rule on one
// processor, where a yield has exactly one taker. The writer is parked on its
// queue; this goroutine enqueues A — which wakes the writer but, with one
// processor, does not run it — yields once, and enqueues B. On a link whose
// Send is a system call the writer takes A, finds nothing else queued and
// yields once itself: the only goroutine to yield to is this one, B is
// queued, and one frame carries both. On a pipe the writer must not wait for
// anybody: A has left alone by the time this goroutine runs again, and B
// follows in a second frame.
func TestBatchWriterYieldsOnlyOnCopyingLinks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A collection in the middle of the script would add goroutines to it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	script := func(conn transport.Conn) {
		t.Helper()
		w := newBatchWriter(conn, nil)
		for i := 0; i < 8; i++ {
			runtime.Gosched() // let the writer park on its empty queue
		}
		if err := w.enqueue(taggedMsg{TaskID: 1, Type: msgCommit, Payload: []byte("A")}, nil); err != nil {
			t.Fatalf("enqueue A: %v", err)
		}
		runtime.Gosched()
		if err := w.enqueue(taggedMsg{TaskID: 2, Type: msgChallenge, Payload: []byte("B")}, nil); err != nil {
			t.Fatalf("enqueue B: %v", err)
		}
		if err := w.close(); err != nil {
			t.Fatalf("writer close: %v", err)
		}
	}
	// shape renders the frames' task IDs, "[1 2]" or "[1] [2]".
	shape := func(frames [][]taggedMsg) string {
		var sb strings.Builder
		for i, f := range frames {
			if i > 0 {
				sb.WriteByte(' ')
			}
			ids := make([]uint64, len(f))
			for j, tm := range f {
				ids[j] = tm.TaskID
			}
			fmt.Fprint(&sb, ids)
		}
		return sb.String()
	}

	tcpEnd, tcpPeer := tcpPair(t)
	defer tcpEnd.Close()
	defer tcpPeer.Close()
	if !tcpEnd.Stats().SendCopies() {
		t.Fatal("a TCP endpoint does not report that its Send copies")
	}
	// The scheduler serves its global queue first on one tick in 61; then
	// this goroutine's own yield returns before the writer has run, and both
	// messages are queued when it does. That is one frame on any link: the
	// expected outcome here, so every attempt must show it, and the reason
	// the pipe gets three attempts to show two frames once.
	for attempt := 0; attempt < 3; attempt++ {
		copying := &recordingConn{stats: tcpEnd.Stats()}
		script(copying)
		if got := shape(copying.frames); got != "[1 2]" {
			t.Errorf("copying link, attempt %d: frames carried tasks %s, want one frame [1 2]", attempt, got)
		}
	}

	var shapes []string
	for attempt := 0; attempt < 3 && !slices.Contains(shapes, "[1] [2]"); attempt++ {
		a, b := transport.Pipe(transport.WithBuffer(4))
		if a.Stats().SendCopies() {
			t.Fatal("a pipe endpoint reports that its Send copies")
		}
		script(a)
		a.Close()
		var piped [][]taggedMsg
		for {
			m, err := b.Recv()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("pipe Recv: %v", err)
			}
			msgs, err := decodeBatch(nil, m.Payload)
			if err != nil {
				t.Fatalf("decodeBatch: %v", err)
			}
			piped = append(piped, msgs)
		}
		b.Close()
		shapes = append(shapes, shape(piped))
	}
	if !slices.Contains(shapes, "[1] [2]") {
		t.Errorf("pipe: frames carried tasks %q, want [1] then [2] — the writer waited on a link with nothing to amortise", shapes)
	}
}

// bufferSpy notes which buffer the writer handed to Send, then passes the
// frame on; like every wrapper it forwards the inner link's Stats.
type bufferSpy struct {
	transport.Conn
	last *byte
	size int
}

func (c *bufferSpy) Send(m transport.Message) error {
	c.last, c.size = &m.Payload[0], len(m.Payload)
	return c.Conn.Send(m)
}

// TestSentFrameBufferComesBackOnlyAfterCopyingSend pins the sender clause of
// the payload pool's ownership rule (transport/pool.go). Over TCP — clean,
// or behind a fault injector that drops or garbles every frame — the buffer
// a flush encoded into is the next one the pool hands out, and the byte
// ledger stays exact. Over a pipe the sender must never take it back: the
// receiver decodes frame one after the sender has encoded frame two.
func TestSentFrameBufferComesBackOnlyAfterCopyingSend(t *testing.T) {
	// One processor, so the writer's Put and this goroutine's Get meet in
	// the same per-P pool cache; no collection, so the pool is not emptied
	// in between.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// flushOne sends one owned message through a fresh writer on conn and
	// checks the ledger: what the endpoint counted is the task's bytes plus
	// the writer's overhead.
	flushOne := func(t *testing.T, conn transport.Conn, payload []byte) {
		t.Helper()
		before := conn.Stats().BytesSent()
		w := newBatchWriter(conn, nil)
		owner := &sessionTaskConn{id: 9}
		owner.inflight.Add(1)
		if err := w.enqueue(taggedMsg{TaskID: owner.id, Type: msgCommit, Payload: payload}, owner); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		if err := w.close(); err != nil {
			t.Fatalf("writer close: %v", err)
		}
		if got, want := conn.Stats().BytesSent()-before, owner.sent.Load()+w.overheadBytes(); got != want || owner.sent.Load() == 0 {
			t.Fatalf("endpoint counted %d bytes, task %d + overhead %d", got, owner.sent.Load(), w.overheadBytes())
		}
	}

	for _, tc := range []struct {
		name string
		plan *transport.FaultPlan
	}{
		{"tcp", nil},
		{"tcp-dropped", &transport.FaultPlan{DropProb: 1, Seed: 1}},
		{"tcp-garbled", &transport.FaultPlan{GarbleProb: 1, Seed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			end, peer := tcpPair(t)
			defer end.Close()
			defer peer.Close()
			link := end
			if tc.plan != nil {
				link = transport.WithFaults(end, *tc.plan)
			}
			spy := &bufferSpy{Conn: link}
			// The race build's sync.Pool drops a quarter of its Puts at
			// random, so the buffer is asked to come back often, not always.
			const rounds = 32
			cameBack := 0
			for i := 0; i < rounds; i++ {
				flushOne(t, spy, bytes.Repeat([]byte{byte(i)}, 100))
				if got := transport.GetPayload(spy.size); &got[0] == spy.last {
					cameBack++
				}
			}
			if cameBack < rounds/4 {
				t.Errorf("the sent frame's buffer was the pool's next %d times in %d, want (nearly) every time", cameBack, rounds)
			}
		})
	}

	t.Run("pipe", func(t *testing.T) {
		a, b := transport.Pipe(transport.WithBuffer(4))
		defer a.Close()
		defer b.Close()
		first, second := bytes.Repeat([]byte{0x11}, 100), bytes.Repeat([]byte{0x22}, 100)
		flushOne(t, a, first)
		flushOne(t, a, second) // same size: a recycled first frame would be drawn and overwritten here
		for _, want := range [][]byte{first, second} {
			m, err := b.Recv()
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			msgs, err := decodeBatch(nil, m.Payload)
			if err != nil || len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, want) {
				t.Fatalf("received %x… (%v), want %x…: the sender reused a buffer its receiver owns", m.Payload[:8], err, want[:4])
			}
		}
	})
}

// BenchmarkSessionTCP is one session over a loopback socket, the link the
// flush rule exists for, at the two ends of the task-size range: tcp_small's
// task at window 8, and an NI-CBS task whose O(n) commit keeps both
// processors busy while cheap replies — a verdict, an acknowledgement —
// queue behind it, the case no benchmark workload covers. frames/task is
// the supervisor endpoint's count, both directions.
func BenchmarkSessionTCP(b *testing.B) {
	for _, bc := range []struct {
		name   string
		spec   SchemeSpec
		n      uint64
		window int
	}{
		{"n64_m8_w8", SchemeSpec{Kind: SchemeCBS, M: 8}, 64, 8},
		{"nicbs_n16384_m32_w2", SchemeSpec{Kind: SchemeNICBS, M: 32, ChainIters: 1}, 16384, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			conn, shutdown := tcpSessionFixture(b)
			defer shutdown()
			sup, err := NewSupervisor(SupervisorConfig{Spec: bc.spec, Seed: 3})
			if err != nil {
				b.Fatalf("NewSupervisor: %v", err)
			}
			sess, err := sup.OpenSession(conn, bc.window)
			if err != nil {
				b.Fatalf("OpenSession: %v", err)
			}
			tasks := poolTasks(b.N, bc.n)
			next := make(chan Task)
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < bc.window; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for task := range next {
						if outcome, err := sess.RunTask(task); err != nil || !outcome.Verdict.Accepted {
							b.Errorf("task %d: %+v, %v", task.ID, outcome, err)
						}
					}
				}()
			}
			for _, task := range tasks {
				next <- task
			}
			close(next)
			wg.Wait()
			b.StopTimer()
			if err := sess.Close(); err != nil {
				b.Fatalf("session close: %v", err)
			}
			st := conn.Stats()
			b.ReportMetric(float64(st.MsgsSent()+st.MsgsRecv())/float64(b.N), "frames/task")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/task")
		})
	}
}
