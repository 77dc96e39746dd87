package grid

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// withChunkSize shrinks the chunk threshold so tests exercise the chunked
// upload path without gigabyte result sets, restoring it afterwards.
func withChunkSize(t *testing.T, n int) {
	t.Helper()
	old := uploadChunkBytes
	uploadChunkBytes = n
	t.Cleanup(func() { uploadChunkBytes = old })
}

// expectedUpload recomputes the encoded result vector an honest participant
// uploads for the task.
func expectedUpload(t *testing.T, task Task) []byte {
	t.Helper()
	f, err := workload.New(task.Workload, task.Seed)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	results := make([][]byte, task.N)
	for i := uint64(0); i < task.N; i++ {
		results[i] = f.Eval(task.Start + i)
	}
	return encodeResults(results)
}

// chunkTap counts the upload chunks a supervisor receives, decoding every
// incoming batch frame the way the session will.
type chunkTap struct {
	transport.Conn
	chunks, finals int
}

func (c *chunkTap) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Type == msgBatch {
		msgs, derr := decodeBatch(nil, m.Payload)
		if derr != nil {
			return m, derr
		}
		for _, tm := range msgs {
			if tm.Type != msgResultChunk {
				continue
			}
			c.chunks++
			if rc, cerr := decodeChunk(tm.Payload); cerr == nil && rc.Final {
				c.finals++
			}
		}
	}
	return m, err
}

// TestChunkedUploadDialogue pins the chunk path one exchange at a time: an
// upload larger than the chunk threshold travels as an ordered chunk stream
// — one tagged message per chunk, however the writer frames them —
// reassembles exactly, and is byte-accounted like any other traffic.
func TestChunkedUploadDialogue(t *testing.T) {
	withChunkSize(t, 512)
	conn, shutdown := sessionFixture(t, HonestFactory)
	defer shutdown()

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeNaive, M: 6}, Seed: 4})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	task := Task{ID: 1, Start: 0, N: 256, Workload: "synthetic", Seed: 7}
	payload := expectedUpload(t, task)
	if len(payload) <= uploadChunkBytes {
		t.Fatalf("test upload of %d bytes does not exceed the %d-byte chunk threshold", len(payload), uploadChunkBytes)
	}
	wantChunks := (len(payload) + uploadChunkBytes - 1) / uploadChunkBytes

	tap := &chunkTap{Conn: conn}
	sess, err := sup.OpenSession(tap, 1)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	outcome, err := sess.RunTask(task)
	if err != nil {
		t.Fatalf("RunTask: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	if !outcome.Verdict.Accepted {
		t.Errorf("honest chunked upload rejected: %s", outcome.Verdict.Reason)
	}
	if tap.chunks != wantChunks || tap.finals != 1 {
		t.Errorf("supervisor received %d chunks (%d final), want %d (1 final)", tap.chunks, tap.finals, wantChunks)
	}
	if outcome.BytesRecv < int64(len(payload)) {
		t.Errorf("outcome BytesRecv = %d, below the %d-byte upload it carried", outcome.BytesRecv, len(payload))
	}
	ovSent, ovRecv := sess.OverheadBytes()
	if got, want := conn.Stats().BytesRecv(), outcome.BytesRecv+ovRecv; got != want {
		t.Errorf("BytesRecv = %d, task + overhead = %d", got, want)
	}
	if got, want := conn.Stats().BytesSent(), outcome.BytesSent+ovSent; got != want {
		t.Errorf("BytesSent = %d, task + overhead = %d", got, want)
	}
}

// TestChunkedUploadSessionExactAccounting runs chunked naive uploads through
// a pipelined session: the connection's frame-level counters must decompose
// into per-task tagged bytes plus session framing overhead exactly — chunk
// framing is counted like batch-tag framing, nothing lost or double-counted.
func TestChunkedUploadSessionExactAccounting(t *testing.T) {
	withChunkSize(t, 512)
	conn, shutdown := sessionFixture(t, HonestFactory)
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeNaive, M: 6}, Seed: 5})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	sess, err := sup.OpenSession(conn, 3)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	outcomes := runSessionTasks(t, sess, poolTasks(5, 256))
	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}

	var taskSent, taskRecv int64
	for _, o := range outcomes {
		if !o.Verdict.Accepted {
			t.Errorf("honest task %d rejected: %s", o.Task.ID, o.Verdict.Reason)
		}
		taskSent += o.BytesSent
		taskRecv += o.BytesRecv
	}
	ovSent, ovRecv := sess.OverheadBytes()
	if got, want := conn.Stats().BytesSent(), taskSent+ovSent; got != want {
		t.Errorf("BytesSent = %d, task sum + overhead = %d", got, want)
	}
	if got, want := conn.Stats().BytesRecv(), taskRecv+ovRecv; got != want {
		t.Errorf("BytesRecv = %d, task sum + overhead = %d", got, want)
	}
	shutdown()
}

// TestChunkedUploadResumesMidStream cuts the link after exactly two chunks
// of a chunked upload reached the supervisor, then re-attaches the attempt
// to a fresh connection: the resume handshake must announce the two banked
// chunks, the stream must splice at chunk 2 (nothing re-sent, nothing lost),
// and the task must finish with an accepting verdict. The test plays the
// participant at the wire level to make the cut deterministic.
func TestChunkedUploadResumesMidStream(t *testing.T) {
	withChunkSize(t, 512)
	task := Task{ID: 4, Start: 0, N: 256, Workload: "synthetic", Seed: 7}
	payload := expectedUpload(t, task)
	chunkCount := (len(payload) + uploadChunkBytes - 1) / uploadChunkBytes
	if chunkCount < 3 {
		t.Fatalf("test upload yields %d chunks; need >= 3", chunkCount)
	}
	chunkAt := func(seq int) taggedMsg {
		lo := seq * uploadChunkBytes
		hi := lo + uploadChunkBytes
		if hi > len(payload) {
			hi = len(payload)
		}
		c := resultChunk{Seq: uint64(seq), Final: seq == chunkCount-1, Data: payload[lo:hi]}
		return taggedMsg{TaskID: task.ID, Type: msgResultChunk, Payload: encodeChunk(c)}
	}

	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeNaive, M: 6}, Seed: 6})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	at, err := sup.NewAttempt(task)
	if err != nil {
		t.Fatalf("NewAttempt: %v", err)
	}

	// First connection: swallow the assignment, deliver chunks 0 and 1,
	// then cut the link.
	supSide, partSide := transport.Pipe(transport.WithBuffer(8))
	sess, err := sup.OpenSession(supSide, 1)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := sess.RunAttempt(at)
		errCh <- err
	}()
	if _, err := partSide.Recv(); err != nil { // the assignment batch
		t.Fatalf("recv assignment: %v", err)
	}
	batch := encodeBatch([]taggedMsg{chunkAt(0), chunkAt(1)})
	if err := partSide.Send(transport.Message{Type: msgBatch, Payload: batch}); err != nil {
		t.Fatalf("send chunks: %v", err)
	}
	_ = partSide.Close() // queued frames drain before EOF, so both chunks land
	if err := <-errCh; !errors.Is(err, ErrConnQuarantined) {
		t.Fatalf("RunAttempt error = %v, want ErrConnQuarantined", err)
	}
	_ = sess.Close()
	if got := at.pt.st.chunks; got != 2 {
		t.Fatalf("attempt banked %d chunks, want 2", got)
	}

	// Replacement connection: the resume must announce 2 chunks, accept the
	// spliced remainder, and deliver the verdict.
	supSide2, partSide2 := transport.Pipe(transport.WithBuffer(8))
	sess2, err := sup.OpenSession(supSide2, 1)
	if err != nil {
		t.Fatalf("OpenSession 2: %v", err)
	}
	go func() {
		outcome, err := sess2.RunAttempt(at)
		if err == nil && !outcome.Verdict.Accepted {
			err = fmt.Errorf("honest chunked upload rejected: %s", outcome.Verdict.Reason)
		}
		errCh <- err
	}()
	frame, err := partSide2.Recv()
	if err != nil {
		t.Fatalf("recv resume: %v", err)
	}
	msgs, err := decodeBatch(nil, frame.Payload)
	if err != nil {
		t.Fatalf("decode resume batch: %v", err)
	}
	if len(msgs) != 1 || msgs[0].Type != msgResume {
		t.Fatalf("replacement connection got %+v, want one msgResume", msgs)
	}
	resume, err := decodeResume(msgs[0].Payload)
	if err != nil {
		t.Fatalf("decode resume: %v", err)
	}
	if resume.Chunks != 2 || resume.ResultsDone {
		t.Fatalf("resume announced chunks=%d resultsDone=%v, want 2/false", resume.Chunks, resume.ResultsDone)
	}
	rest := make([]taggedMsg, 0, chunkCount-2+1)
	for seq := 2; seq < chunkCount; seq++ {
		rest = append(rest, chunkAt(seq))
	}
	rest = append(rest, taggedMsg{TaskID: task.ID, Type: msgReports, Payload: encodeReports(nil)})
	if err := partSide2.Send(transport.Message{Type: msgBatch, Payload: encodeBatch(rest)}); err != nil {
		t.Fatalf("send remainder: %v", err)
	}
	if _, err := partSide2.Recv(); err != nil { // the verdict batch
		t.Fatalf("recv verdict: %v", err)
	}
	ack := encodeBatch([]taggedMsg{{TaskID: task.ID, Type: msgVerdictAck}})
	if err := partSide2.Send(transport.Message{Type: msgBatch, Payload: ack}); err != nil {
		t.Fatalf("send verdict ack: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("resumed RunAttempt: %v", err)
	}
	_ = sess2.Close()
	_ = supSide2.Close()
}

// TestParticipantResumesChunkStreamAtOffset drives the participant session
// at the wire level: a resume handshake claiming k chunks received must make
// the participant replay the upload starting exactly at chunk k, and the
// spliced stream must reassemble to the full encoding.
func TestParticipantResumesChunkStreamAtOffset(t *testing.T) {
	withChunkSize(t, 512)
	task := Task{ID: 3, Start: 0, N: 256, Workload: "synthetic", Seed: 7}
	payload := expectedUpload(t, task)
	chunkCount := uint64((len(payload) + uploadChunkBytes - 1) / uploadChunkBytes)
	if chunkCount < 3 {
		t.Fatalf("test upload yields %d chunks; need >= 3", chunkCount)
	}
	const skip = 2

	p, err := NewParticipant("p", HonestFactory)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.Serve(partConn) }()

	resume := resumeMsg{
		Assignment: assignment{Task: task, Spec: SchemeSpec{Kind: SchemeNaive, M: 6}},
		Chunks:     skip,
	}
	batch := encodeBatch([]taggedMsg{{TaskID: task.ID, Type: msgResume, Payload: encodeResume(resume)}})
	if err := supConn.Send(transport.Message{Type: msgBatch, Payload: batch}); err != nil {
		t.Fatalf("send resume: %v", err)
	}

	var got []byte
	next := uint64(skip)
	sawReports := false
	for !sawReports {
		frame, err := supConn.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		msgs, err := decodeBatch(nil, frame.Payload)
		if err != nil {
			t.Fatalf("decode batch: %v", err)
		}
		for _, tm := range msgs {
			switch tm.Type {
			case msgResultChunk:
				c, err := decodeChunk(tm.Payload)
				if err != nil {
					t.Fatalf("decode chunk: %v", err)
				}
				if c.Seq != next {
					t.Fatalf("chunk seq %d, want %d — resume did not splice at the offset", c.Seq, next)
				}
				next++
				got = append(got, c.Data...)
				if c.Final && next != chunkCount {
					t.Fatalf("final chunk at seq %d, want %d", c.Seq, chunkCount-1)
				}
			case msgReports:
				sawReports = true
			default:
				t.Fatalf("unexpected message type %d", tm.Type)
			}
		}
	}
	if want := payload[skip*uploadChunkBytes:]; !bytes.Equal(got, want) {
		t.Errorf("resumed chunk stream carried %d bytes, want %d, or content mismatch", len(got), len(want))
	}
	// Let the task's verdict wait resolve via connection close.
	_ = supConn.Close()
	if err := <-serveErr; err != nil {
		t.Errorf("participant serve: %v", err)
	}
}
