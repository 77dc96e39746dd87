package grid

import (
	"reflect"
	"testing"
)

// The wire decoders face attacker-controlled bytes: a malicious participant
// can send anything inside a frame. These native fuzz targets assert the
// decoders never panic and that whatever decodes successfully survives an
// encode∘decode round trip unchanged.

func fuzzAssignmentSeeds(f *testing.F) {
	f.Add(encodeAssignment(assignment{
		Task: Task{ID: 3, Start: 64, N: 128, Workload: "synthetic", Seed: 9},
		Spec: SchemeSpec{Kind: SchemeCBS, M: 20},
	}))
	f.Add(encodeAssignment(assignment{
		Task:         Task{ID: 1, N: 16, Workload: "password", Seed: 2},
		Spec:         SchemeSpec{Kind: SchemeRinger, M: 2},
		RingerImages: [][]byte{{0xde, 0xad}, {}, {0xbe}},
	}))
	f.Add(encodeAssignment(assignment{
		Task: Task{ID: 0, N: 1, Workload: "", Seed: 0},
		Spec: SchemeSpec{Kind: SchemeNICBS, M: 1, ChainIters: 4, SubtreeHeight: 3},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
}

func FuzzDecodeAssignment(f *testing.F) {
	fuzzAssignmentSeeds(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := decodeAssignment(payload)
		if err != nil {
			return
		}
		again, err := decodeAssignment(encodeAssignment(a))
		if err != nil {
			t.Fatalf("re-decode of re-encoded assignment failed: %v", err)
		}
		if !reflect.DeepEqual(a, again) {
			t.Fatalf("round trip changed assignment: %+v != %+v", a, again)
		}
	})
}

func FuzzDecodeReports(f *testing.F) {
	f.Add(encodeReports(nil))
	f.Add(encodeReports([]Report{{X: 7, S: "hit"}, {X: 0, S: ""}}))
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		reports, err := decodeReports(payload)
		if err != nil {
			return
		}
		again, err := decodeReports(encodeReports(reports))
		if err != nil {
			t.Fatalf("re-decode of re-encoded reports failed: %v", err)
		}
		if !reflect.DeepEqual(reports, again) {
			t.Fatalf("round trip changed reports: %+v != %+v", reports, again)
		}
	})
}

func FuzzDecodeChunk(f *testing.F) {
	f.Add(encodeChunk(resultChunk{Seq: 0, Final: false, Data: []byte{1, 2, 3}}))
	f.Add(encodeChunk(resultChunk{Seq: 17, Final: true, Data: nil}))
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x02, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := decodeChunk(payload)
		if err != nil {
			return
		}
		again, err := decodeChunk(encodeChunk(c))
		if err != nil {
			t.Fatalf("re-decode of re-encoded chunk failed: %v", err)
		}
		if c.Seq != again.Seq || c.Final != again.Final || !reflect.DeepEqual(c.Data, again.Data) {
			t.Fatalf("round trip changed chunk: %+v != %+v", c, again)
		}
	})
}

func FuzzDecodeResume(f *testing.F) {
	f.Add(encodeResume(resumeMsg{
		Assignment: assignment{
			Task: Task{ID: 3, Start: 64, N: 128, Workload: "synthetic", Seed: 9},
			Spec: SchemeSpec{Kind: SchemeCBS, M: 20},
		},
		HaveCommit:  true,
		HaveReports: true,
		Challenge:   []byte{1, 2, 3, 4},
	}))
	f.Add(encodeResume(resumeMsg{
		Assignment: assignment{
			Task: Task{ID: 7, N: 32, Workload: "password", Seed: 1},
			Spec: SchemeSpec{Kind: SchemeNaive, M: 4},
		},
		Chunks: 5,
	}))
	f.Add(encodeResume(resumeMsg{
		Assignment: assignment{
			Task:         Task{ID: 1, N: 16, Workload: "synthetic", Seed: 2},
			Spec:         SchemeSpec{Kind: SchemeRinger, M: 2},
			RingerImages: [][]byte{{0xde}, {}},
		},
		HaveHits:    true,
		ResultsDone: true,
	}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeResume(payload)
		if err != nil {
			return
		}
		again, err := decodeResume(encodeResume(m))
		if err != nil {
			t.Fatalf("re-decode of re-encoded resume failed: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed resume: %+v != %+v", m, again)
		}
	})
}

// FuzzDecodeVerdict covers the ruling decoder the participant applies to
// supervisor frames. (The verdict acknowledgement introduced alongside it
// carries an empty payload — the supervisor rejects any non-empty ack — so
// there is no ack codec to fuzz.)
func FuzzDecodeVerdict(f *testing.F) {
	f.Add(encodeVerdict(Verdict{Accepted: true}))
	f.Add(encodeVerdict(Verdict{Reason: "disagrees with replica majority"}))
	f.Add([]byte{0x02})
	f.Add([]byte{0x01, 0x05, 'a'})
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := decodeVerdict(payload)
		if err != nil {
			return
		}
		again, err := decodeVerdict(encodeVerdict(v))
		if err != nil {
			t.Fatalf("re-decode of re-encoded verdict failed: %v", err)
		}
		if v != again {
			t.Fatalf("round trip changed verdict: %+v != %+v", v, again)
		}
	})
}

// FuzzDecodeResults covers the full-upload decoder the replica comparison
// consumes — attacker-controlled in every double-check run.
func FuzzDecodeResults(f *testing.F) {
	f.Add(encodeResults(nil))
	f.Add(encodeResults([][]byte{{1, 2}, {}, {3}}))
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		results, err := decodeResults(payload)
		if err != nil {
			return
		}
		again, err := decodeResults(encodeResults(results))
		if err != nil {
			t.Fatalf("re-decode of re-encoded results failed: %v", err)
		}
		if len(results) != len(again) || (len(results) > 0 && !reflect.DeepEqual(results, again)) {
			t.Fatalf("round trip changed results: %+v != %+v", results, again)
		}
	})
}

// FuzzDecodeHello covers the broker hub's identity handshake — the one
// frame the hub itself decodes from every attached link, so it faces
// whatever a misbehaving endpoint dials in with.
func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello(helloMsg{Role: helloRoleWorker, Worker: "participant-7"}))
	f.Add(encodeHello(helloMsg{Role: helloRoleRetired, Worker: "p"})) // a reject seed
	f.Add(encodeHello(helloMsg{Role: helloRoleMux, Worker: "supervisor-0", Route: 0}))
	f.Add(encodeHello(helloMsg{Role: helloRoleOpen, Worker: "participant-7", Route: 41}))
	f.Add(encodeHello(helloMsg{Role: helloRoleClose, Worker: "participant-7", Route: 1 << 40}))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x03, 0x01, 'x'})
	f.Add([]byte{0x02, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x05, 0x01, 'w'})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeHello(payload)
		if err != nil {
			return
		}
		if m.Worker == "" || len(m.Worker) > maxWorkerNameLen || m.Role == helloRoleRetired {
			t.Fatalf("decode accepted an invalid hello: %+v", m)
		}
		again, err := decodeHello(encodeHello(m))
		if err != nil {
			t.Fatalf("re-decode of re-encoded hello failed: %v", err)
		}
		if m != again {
			t.Fatalf("round trip changed hello: %+v != %+v", m, again)
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add(encodeBatch(nil))
	f.Add(encodeBatch([]taggedMsg{
		{TaskID: 1, Type: msgCommit, Payload: []byte{1, 2, 3}},
		{TaskID: 2, Type: msgReports, Payload: nil},
	}))
	f.Add(encodeBatch([]taggedMsg{{
		TaskID: 9,
		Type:   msgAssign,
		Payload: encodeAssignment(assignment{
			Task: Task{ID: 9, N: 8, Workload: "synthetic"},
			Spec: SchemeSpec{Kind: SchemeCBS, M: 1},
		}),
	}}))
	f.Add([]byte{0x02, 0x00})
	f.Fuzz(func(t *testing.T, payload []byte) {
		msgs, err := decodeBatch(payload)
		if err != nil {
			return
		}
		again, err := decodeBatch(encodeBatch(msgs))
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v", err)
		}
		if len(msgs) != len(again) || (len(msgs) > 0 && !reflect.DeepEqual(msgs, again)) {
			t.Fatalf("round trip changed batch: %+v != %+v", msgs, again)
		}
	})
}

// FuzzDecodeRouted covers the multiplexed-link envelope both the hub and
// the supervisor mux decode from their shared physical link — every muxed
// data frame crosses it, in both directions.
func FuzzDecodeRouted(f *testing.F) {
	f.Add(encodeRouted([]routedEntry{{Route: 0, Type: msgCommit, Payload: []byte{0xaa, 0xbb}}}))
	f.Add(encodeRouted([]routedEntry{
		{Route: 3, Type: msgBatch, Payload: nil},
		{Route: 1 << 33, Type: msgVerdict, Payload: []byte{0x01}},
		{Route: 3, Type: msgReports, Payload: []byte{0x00}},
	}))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x00, 0x07, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		entries, err := decodeRouted(payload)
		if err != nil {
			return
		}
		if len(entries) == 0 {
			t.Fatal("decode accepted an empty envelope")
		}
		again, err := decodeRouted(encodeRouted(entries))
		if err != nil {
			t.Fatalf("re-decode of re-encoded envelope failed: %v", err)
		}
		if !reflect.DeepEqual(entries, again) {
			t.Fatalf("round trip changed envelope: %+v != %+v", entries, again)
		}
	})
}

// FuzzDecodeCredit covers the flow-control grant both muxed-link endpoints
// decode: hub→supervisor for toWorker credit and supervisor→hub for toSup
// credit, each carrying the granter's advertised adaptive window.
func FuzzDecodeCredit(f *testing.F) {
	f.Add(encodeCredit(creditMsg{Route: 0, Bytes: 1, Window: 1}))
	f.Add(encodeCredit(creditMsg{Route: 999, Bytes: 256 << 10, Window: 256 << 10}))
	f.Add(encodeCredit(creditMsg{Route: 3, Bytes: 32 << 10, Window: maxCreditGrant}))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{0x00, 0x01, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeCredit(payload)
		if err != nil {
			return
		}
		if m.Bytes == 0 || m.Bytes > maxCreditGrant {
			t.Fatalf("decode accepted an out-of-range grant: %+v", m)
		}
		if m.Window == 0 || m.Window > maxCreditGrant {
			t.Fatalf("decode accepted an out-of-range window: %+v", m)
		}
		again, err := decodeCredit(encodeCredit(m))
		if err != nil {
			t.Fatalf("re-decode of re-encoded credit failed: %v", err)
		}
		if m != again {
			t.Fatalf("round trip changed credit: %+v != %+v", m, again)
		}
	})
}

// FuzzDecodeWindowCommit covers the rolling-commitment decoder the
// supervisor applies to ctrl frames from long-horizon participants — the
// one place a cheating participant can try to forge a settled window.
func FuzzDecodeWindowCommit(f *testing.F) {
	f.Add(encodeWindowCommit(windowCommitMsg{
		Window:  0,
		Root:    []byte{0xaa, 0xbb, 0xcc, 0xdd},
		TaskIDs: []uint64{0, 1, 2, 3},
		Proofs:  [][]byte{{0x01, 0x02}, nil},
	}))
	f.Add(encodeWindowCommit(windowCommitMsg{
		Window:  41,
		Root:    make([]byte, 32),
		TaskIDs: []uint64{328, 329},
	}))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeWindowCommit(payload)
		if err != nil {
			return
		}
		if len(m.Root) == 0 || len(m.Root) > maxWindowRootLen {
			t.Fatalf("decode accepted an out-of-range root: %d bytes", len(m.Root))
		}
		if len(m.TaskIDs) == 0 || len(m.TaskIDs) > maxWindowCommitTasks {
			t.Fatalf("decode accepted an out-of-range task count: %d", len(m.TaskIDs))
		}
		again, err := decodeWindowCommit(encodeWindowCommit(m))
		if err != nil {
			t.Fatalf("re-decode of re-encoded window commit failed: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed window commit: %+v != %+v", m, again)
		}
	})
}

// FuzzDecodeCheckpoint covers the checkpoint-order decoder. (The matching
// ack carries an empty payload, like the verdict ack, so there is no ack
// codec to fuzz.)
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(encodeCheckpoint(checkpointMsg{Seq: 0}))
	f.Add(encodeCheckpoint(checkpointMsg{Seq: 1 << 40}))
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x07})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeCheckpoint(payload)
		if err != nil {
			return
		}
		again, err := decodeCheckpoint(encodeCheckpoint(m))
		if err != nil {
			t.Fatalf("re-decode of re-encoded checkpoint failed: %v", err)
		}
		if m != again {
			t.Fatalf("round trip changed checkpoint: %+v != %+v", m, again)
		}
	})
}

func FuzzDecodeIndices(f *testing.F) {
	f.Add(encodeIndices(nil))
	f.Add(encodeIndices([]uint64{0, 1, 1<<63 - 1}))
	f.Add(encodeIndices([]uint64{42}))
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		indices, err := decodeIndices(payload)
		if err != nil {
			return
		}
		again, err := decodeIndices(encodeIndices(indices))
		if err != nil {
			t.Fatalf("re-decode of re-encoded indices failed: %v", err)
		}
		if len(indices) != len(again) || (len(indices) > 0 && !reflect.DeepEqual(indices, again)) {
			t.Fatalf("round trip changed indices: %+v != %+v", indices, again)
		}
	})
}
