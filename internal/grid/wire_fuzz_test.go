package grid

import (
	"errors"
	"reflect"
	"testing"
)

// The wire decoders face attacker-controlled bytes: a malicious participant
// can send anything inside a frame. Every native fuzz target below is a
// differential: the slice-walking decoder in wire.go against the
// bytes.Reader decoder it replaced (wire_reference_test.go) — same
// accept/reject, same decoded value, same sentinel — and, for whatever
// decodes, an encode∘decode round trip that must change nothing.

// fuzzDecoder registers the differential for one decoder. valid, when
// non-nil, asserts what no accepted value may violate.
func fuzzDecoder[T any](f *testing.F, decode, ref func([]byte) (T, error), encode func(T) []byte, valid func(*testing.T, T)) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := decode(payload)
		want, refErr := ref(payload)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder returned %v, reference %v", err, refErr)
		}
		if err != nil {
			for _, sentinel := range []error{ErrBadPayload, ErrFrameCorrupt} {
				if errors.Is(err, sentinel) != errors.Is(refErr, sentinel) {
					t.Fatalf("decoder failed with %v, reference with %v: different sentinels", err, refErr)
				}
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoder and reference disagree: %+v != %+v", got, want)
		}
		if valid != nil {
			valid(t, got)
		}
		again, err := decode(encode(got))
		if err != nil {
			t.Fatalf("re-decode of the re-encoded value failed: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the value: %+v != %+v", got, again)
		}
	})
}

// decodeBatchFresh and decodeRoutedFresh decode into no scratch, the shape
// the differential compares.
func decodeBatchFresh(payload []byte) ([]taggedMsg, error)    { return decodeBatch(nil, payload) }
func decodeRoutedFresh(payload []byte) ([]routedEntry, error) { return decodeRouted(nil, payload) }

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
	fuzzDecoder(f, decodeAssignment, refDecodeAssignment, encodeAssignment, nil)
}

func FuzzDecodeReports(f *testing.F) {
	f.Add(encodeReports(nil))
	f.Add(encodeReports([]Report{{X: 7, S: "hit"}, {X: 0, S: ""}}))
	f.Add([]byte{0x01})
	fuzzDecoder(f, decodeReports, refDecodeReports, encodeReports, nil)
}

func FuzzDecodeChunk(f *testing.F) {
	f.Add(encodeChunk(resultChunk{Seq: 0, Final: false, Data: []byte{1, 2, 3}}))
	f.Add(encodeChunk(resultChunk{Seq: 17, Final: true, Data: nil}))
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x02, 0xff})
	fuzzDecoder(f, decodeChunk, refDecodeChunk, encodeChunk, nil)
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
	fuzzDecoder(f, decodeResume, refDecodeResume, encodeResume, nil)
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
	fuzzDecoder(f, decodeVerdict, refDecodeVerdict, encodeVerdict, nil)
}

// FuzzDecodeResults covers the full-upload decoder the replica comparison
// consumes — attacker-controlled in every double-check run.
func FuzzDecodeResults(f *testing.F) {
	f.Add(encodeResults(nil))
	f.Add(encodeResults([][]byte{{1, 2}, {}, {3}}))
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	fuzzDecoder(f, decodeResults, refDecodeResults, encodeResults, nil)
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
	fuzzDecoder(f, decodeHello, refDecodeHello, encodeHello, func(t *testing.T, m helloMsg) {
		if m.Worker == "" || len(m.Worker) > maxWorkerNameLen || m.Role == helloRoleRetired {
			t.Fatalf("decode accepted an invalid hello: %+v", m)
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
	fuzzDecoder(f, decodeBatchFresh, refDecodeBatch, encodeBatch, nil)
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
	fuzzDecoder(f, decodeRoutedFresh, refDecodeRouted, encodeRouted, func(t *testing.T, entries []routedEntry) {
		if len(entries) == 0 {
			t.Fatal("decode accepted an empty envelope")
		}
	})
}

// FuzzDecodeCredit covers the flow-control grant both muxed-link endpoints
// decode: hub→supervisor for toWorker credit and supervisor→hub for toSup
// credit.
func FuzzDecodeCredit(f *testing.F) {
	f.Add(encodeCredit(creditMsg{Route: 0, Bytes: 1}))
	f.Add(encodeCredit(creditMsg{Route: 999, Bytes: 256 << 10}))
	f.Add(encodeCredit(creditMsg{Route: 3, Bytes: maxCreditGrant}))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{0x00, 0x01, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00})
	fuzzDecoder(f, decodeCredit, refDecodeCredit, encodeCredit, func(t *testing.T, m creditMsg) {
		if m.Bytes == 0 || m.Bytes > maxCreditGrant {
			t.Fatalf("decode accepted an out-of-range grant: %+v", m)
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
		Proof:   []byte{0x01, 0x02},
	}))
	f.Add(encodeWindowCommit(windowCommitMsg{
		Window:  41,
		Root:    make([]byte, 32),
		TaskIDs: []uint64{328, 329},
	}))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	fuzzDecoder(f, decodeWindowCommit, refDecodeWindowCommit, encodeWindowCommit, func(t *testing.T, m windowCommitMsg) {
		if len(m.Root) == 0 || len(m.Root) > maxWindowRootLen {
			t.Fatalf("decode accepted an out-of-range root: %d bytes", len(m.Root))
		}
		if len(m.TaskIDs) == 0 || len(m.TaskIDs) > maxWindowCommitTasks {
			t.Fatalf("decode accepted an out-of-range task count: %d", len(m.TaskIDs))
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
	fuzzDecoder(f, decodeCheckpoint, refDecodeCheckpoint, encodeCheckpoint, nil)
}

func FuzzDecodeIndices(f *testing.F) {
	f.Add(encodeIndices(nil))
	f.Add(encodeIndices([]uint64{0, 1, 1<<63 - 1}))
	f.Add(encodeIndices([]uint64{42}))
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	fuzzDecoder(f, decodeIndices, refDecodeIndices, encodeIndices, nil)
}
