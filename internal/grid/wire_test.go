package grid

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"uncheatgrid/internal/core"
	"uncheatgrid/internal/merkle"
	"uncheatgrid/internal/transport"
)

// TestWireDecoderManifestTotal pins the manifest's totality at runtime too:
// every message kind from msgAssign through msgCredit has an entry. The
// static side — each named decoder existing and being fuzzed — is enforced
// by gridlint's wireexhaustive analyzer.
func TestWireDecoderManifestTotal(t *testing.T) {
	for kind := msgAssign; kind <= msgCheckpointAck; kind++ {
		if _, ok := wireDecoderFor[kind]; !ok {
			t.Errorf("wireDecoderFor has no entry for message kind %d", kind)
		}
	}
	if len(wireDecoderFor) != int(msgCheckpointAck-msgAssign)+1 {
		t.Errorf("wireDecoderFor has %d entries, want %d", len(wireDecoderFor), int(msgCheckpointAck-msgAssign)+1)
	}
}

// wireCorpusSeeds returns the committed seed corpus for every FuzzDecode*
// target: real encoder output plus truncated/overflowed adversarial bytes,
// so `go test -fuzz` (and CI's fuzz smoke) starts from structured inputs
// instead of rediscovering the wire format from zero each run.
func wireCorpusSeeds() map[string][][]byte {
	return map[string][][]byte{
		"FuzzDecodeAssignment": {
			encodeAssignment(assignment{
				Task: Task{ID: 3, Start: 64, N: 128, Workload: "synthetic", Seed: 9},
				Spec: SchemeSpec{Kind: SchemeCBS, M: 20},
			}),
			encodeAssignment(assignment{
				Task:         Task{ID: 1, N: 16, Workload: "password", Seed: 2},
				Spec:         SchemeSpec{Kind: SchemeRinger, M: 2},
				RingerImages: [][]byte{{0xde, 0xad}, {}, {0xbe}},
			}),
			{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		},
		"FuzzDecodeReports": {
			encodeReports(nil),
			encodeReports([]Report{{X: 7, S: "hit"}, {X: 0, S: ""}}),
			{0x01},
		},
		"FuzzDecodeChunk": {
			encodeChunk(resultChunk{Seq: 0, Final: false, Data: []byte{1, 2, 3}}),
			encodeChunk(resultChunk{Seq: 17, Final: true, Data: nil}),
			{0x03, 0x02, 0xff},
		},
		"FuzzDecodeResume": {
			encodeResume(resumeMsg{
				Assignment: assignment{
					Task: Task{ID: 5, N: 32, Workload: "synthetic", Seed: 1},
					Spec: SchemeSpec{Kind: SchemeCBS, M: 4},
				},
				HaveCommit: true,
				Chunks:     2,
			}),
			{0x01, 0x00, 0xff},
		},
		"FuzzDecodeVerdict": {
			encodeVerdict(Verdict{Accepted: true}),
			encodeVerdict(Verdict{Reason: "disagrees with replica majority"}),
			{0x01, 0x05, 'a'},
		},
		"FuzzDecodeResults": {
			encodeResults(nil),
			encodeResults([][]byte{{1, 2}, {}, {3}}),
			{0xff, 0xff, 0xff, 0xff, 0x0f},
		},
		"FuzzDecodeHello": {
			encodeHello(helloMsg{Role: helloRoleWorker, Worker: "participant-7"}),
			encodeHello(helloMsg{Role: helloRoleRetired, Worker: "p"}),
			encodeHello(helloMsg{Role: helloRoleMux, Worker: "supervisor-0", Route: 0}),
			encodeHello(helloMsg{Role: helloRoleOpen, Worker: "participant-7", Route: 41}),
			encodeHello(helloMsg{Role: helloRoleClose, Worker: "participant-7", Route: 1 << 40}),
			{0x02, 0xff, 0xff, 0x7f},
			{0x05, 0x01, 'w'},
		},
		"FuzzDecodeRouted": {
			encodeRouted([]routedEntry{{Route: 0, Type: msgCommit, Payload: []byte{0xaa, 0xbb}}}),
			encodeRouted([]routedEntry{
				{Route: 3, Type: msgBatch, Payload: nil},
				{Route: 1 << 33, Type: msgVerdict, Payload: []byte{0x01}},
				{Route: 3, Type: msgReports, Payload: []byte{0x00}},
			}),
			{0x01, 0x00, 0x07, 0xff, 0xff, 0xff, 0x0f},
		},
		"FuzzDecodeCredit": {
			encodeCredit(creditMsg{Route: 0, Bytes: 1}),
			encodeCredit(creditMsg{Route: 999, Bytes: 256 << 10}),
			encodeCredit(creditMsg{Route: 3, Bytes: maxCreditGrant}),
			{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00},
			{0x00, 0x01, 0x00},
		},
		"FuzzDecodeBatch": {
			encodeBatch(nil),
			encodeBatch([]taggedMsg{
				{TaskID: 1, Type: msgCommit, Payload: []byte{0xaa, 0xbb}},
				{TaskID: 2, Type: msgReports, Payload: nil},
			}),
			{0x02, 0x00},
		},
		"FuzzDecodeIndices": {
			encodeIndices(nil),
			encodeIndices([]uint64{0, 1, 1<<63 - 1}),
			{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		},
		"FuzzDecodeWindowCommit": {
			encodeWindowCommit(windowCommitMsg{
				Window:  0,
				Root:    []byte{0xaa, 0xbb, 0xcc, 0xdd},
				TaskIDs: []uint64{0, 1, 2, 3},
				Proof:   []byte{0x01, 0x02},
			}),
			encodeWindowCommit(windowCommitMsg{
				Window:  41,
				Root:    make([]byte, 32),
				TaskIDs: []uint64{328, 329},
			}),
			{0x00, 0x00},
			{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		},
		"FuzzDecodeCheckpoint": {
			encodeCheckpoint(checkpointMsg{Seq: 0}),
			encodeCheckpoint(checkpointMsg{Seq: 1 << 40}),
			{0x07, 0x07},
		},
	}
}

// corpusEntry renders one []byte seed in the `go test fuzz v1` file format.
func corpusEntry(seed []byte) string {
	return "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
}

// TestWriteSeedCorpus regenerates the committed corpus files. Gated so a
// plain `go test` never rewrites testdata:
//
//	GRIDCORPUS_WRITE=1 go test ./internal/grid -run TestWriteSeedCorpus
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("GRIDCORPUS_WRITE") == "" {
		t.Skip("set GRIDCORPUS_WRITE=1 to regenerate the seed corpus")
	}
	for target, seeds := range wireCorpusSeeds() {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
			if err := os.WriteFile(name, []byte(corpusEntry(seed)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSeedCorpusCommitted fails when a fuzz target's committed corpus is
// missing or stale relative to wireCorpusSeeds, so the corpus cannot rot as
// the wire format evolves.
func TestSeedCorpusCommitted(t *testing.T) {
	for target, seeds := range wireCorpusSeeds() {
		dir := filepath.Join("testdata", "fuzz", target)
		for i, seed := range seeds {
			name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
			data, err := os.ReadFile(name)
			if err != nil {
				t.Errorf("%s: missing committed corpus file (run GRIDCORPUS_WRITE=1 go test -run TestWriteSeedCorpus): %v", target, err)
				continue
			}
			if string(data) != corpusEntry(seed) {
				t.Errorf("%s: %s is stale; regenerate with GRIDCORPUS_WRITE=1 go test -run TestWriteSeedCorpus", target, name)
			}
		}
	}
}

// TestGridCodecGoldenBytes holds "every encoding stays byte-identical" to
// bytes: one fixed value per encoder, the expected encodings recorded from
// the build before wire.go's encoders became append forms (its bytes.Buffer
// encoders wrote them). Two differences are deliberate. msgCredit's third
// field — the advertised window nobody read — left the wire: the parent
// wrote e707808010 followed by 808002. And participant window state lost
// its trailing full-stream frontier with checkpoint format version 2. Every
// encoder but the two that draw a pooled frame buffer must also size its
// output exactly.
func TestGridCodecGoldenBytes(t *testing.T) {
	a := assignment{
		Task:         Task{ID: 300, Start: 1 << 33, N: 4096, Workload: "synthetic", Seed: 77},
		Spec:         SchemeSpec{Kind: SchemeRinger, M: 33, ChainIters: 2, SubtreeHeight: 3, WindowTasks: 8, WindowSamples: 2},
		RingerImages: [][]byte{{0xde, 0xad, 0xbe, 0xef}, {}, {0x01}},
	}
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"hello worker", encodeHello(helloMsg{Role: helloRoleWorker, Worker: "participant-7"}), "010d7061727469636970616e742d37"},
		{"hello open", encodeHello(helloMsg{Role: helloRoleOpen, Worker: "participant-7", Route: 41}), "040d7061727469636970616e742d3729"},
		{"routed", encodeRouted([]routedEntry{
			{Route: 3, Type: msgBatch, Payload: []byte{0xaa, 0xbb, 0xcc}},
			{Route: 1 << 33, Type: msgVerdict, Payload: nil},
		}), "02030903aabbcc80808080200800"},
		{"window commit", encodeWindowCommit(windowCommitMsg{
			Window:  41,
			Root:    []byte{0xaa, 0xbb, 0xcc, 0xdd},
			TaskIDs: []uint64{328, 329, 1 << 40},
			Proof:   []byte{0x01, 0x02},
		}), "2904aabbccdd03c802c902808080808020020102"},
		{"participant windows", participantWindowsState(t), participantWindowsGolden[:len(participantWindowsGolden)-2*v1FrontierField]},
		{"checkpoint", encodeCheckpoint(checkpointMsg{Seq: 1 << 40}), "808080808020"},
		{"batch", encodeBatch([]taggedMsg{
			{TaskID: 1, Type: msgCommit, Payload: []byte{1, 2, 3}},
			{TaskID: ctrlTaskID, Type: msgCheckpointAck, Payload: nil},
			{TaskID: 130, Type: msgReports, Payload: []byte{0}},
		}), "5a63c21103010203010203ffffffffffffffffff0112008201050100"},
		{"empty batch", encodeBatch(nil), "8def02d200"},
		{"assignment", encodeAssignment(a), "ac02808080802080200973796e7468657469634d0521020308020304deadbeef000101"},
		{"reports", encodeReports([]Report{{X: 7, S: "hit"}, {X: 1 << 50, S: ""}}), "020703686974808080808080800200"},
		{"results", encodeResults([][]byte{{1, 2}, {}, {3}}), "03020102000103"},
		{"chunk", encodeChunk(resultChunk{Seq: 17, Final: true, Data: []byte{9, 8, 7}}), "110103090807"},
		{"resume", encodeResume(resumeMsg{
			Assignment: a, HaveCommit: true, HaveHits: true, ResultsDone: true, Chunks: 5, Challenge: []byte{1, 2, 3, 4},
		}), "23ac02808080802080200973796e7468657469634d0521020308020304deadbeef00010139050401020304"},
		{"resume without challenge", encodeResume(resumeMsg{Assignment: assignment{Task: Task{ID: 1, N: 8, Workload: "password"}, Spec: SchemeSpec{Kind: SchemeCBS, M: 4}}, HaveReports: true, HaveProofs: true}), "140100080870617373776f726400010400000000000600"},
		{"indices", encodeIndices([]uint64{0, 1, 1<<63 - 1}), "030001ffffffffffffffff7f"},
		{"verdict accepted", encodeVerdict(Verdict{Accepted: true}), "0100"},
		{"verdict rejected", encodeVerdict(Verdict{Reason: "disagrees with replica majority"}), "001f6469736167726565732077697468207265706c696361206d616a6f72697479"},
		{"credit", encodeCredit(creditMsg{Route: 999, Bytes: 256 << 10}), "e707808010"},
	} {
		if hex.EncodeToString(g.got) != g.want {
			t.Errorf("%s encodes as %x, the parent wrote %s", g.name, g.got, g.want)
		}
		// Two encoders draw a pooled frame buffer; window state is
		// appended to the participant's checkpoint payload.
		unsized := g.name == "routed" || strings.HasSuffix(g.name, "batch") || g.name == "participant windows"
		if !unsized && cap(g.got) != len(g.got) {
			t.Errorf("%s: %d-byte encoding in a %d-byte buffer, want an exact size", g.name, len(g.got), cap(g.got))
		}
	}

	// Window state checkpointed in format version 1 restores and writes
	// itself back without its frontier field.
	parent, err := hex.DecodeString(participantWindowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := walkParticipantWindows(1, parent)
	if err != nil {
		t.Fatalf("decode the version-1 window state: %v", err)
	}
	if again := pw.appendState(nil); !bytes.Equal(again, parent[:len(parent)-v1FrontierField]) {
		t.Fatalf("restored version-1 window state re-encodes as %x", again)
	}
}

// participantWindowsGolden is participantWindowsState as format version 1
// wrote it: its last v1FrontierField bytes are the length-prefixed
// frontier of the full-stream Merkle tree version 2 dropped.
const participantWindowsGolden = "040201206c1590201214685d2f2f462ebda9d9280a15d23c9acac41dc7ae432cff90d2b70102042042354c67d99d2848f65408a76266ab029efdda0533e23c18c8147c4999b34bc1052009f09ca7274808f1e934b3da4b92b59240f2d33ad92cc653f5c6e9af142595304d80808080802006020220424b93a9d16fc2a99412a16bbdf638ef853119edf140ced59a5882bf18d8185b0120b1c572de5a00a23b45a715e44070adc5c864970be5b42c380f61324d16f761dd00"

// v1FrontierField is the size of that frontier field: a 1-byte length
// and 77 bytes of snapshot. A participant file of version 1 ends in it too.
const v1FrontierField = 78

// participantWindowsState checkpoints a participant's window state after
// one settled window of four and two pending tasks.
func participantWindowsState(t *testing.T) []byte {
	t.Helper()
	spec := windowSpec(4, 2)
	pw, led := windowPair(t, spec)
	for id := uint64(0); id < 6; id++ {
		settleTask(t, pw, led, id, streamDigest(id, spec.Kind, []byte{byte(id)}))
	}
	return pw.appendState(nil)
}

// TestDecodedPayloadsSurviveFrameReuse is the guard for the carving scheme
// (transport/pool.go): what decodeBatch and decodeRouted hand out — and a
// MultiProof aliased from it, as ingestProofs does — must not point into the
// frame, because the frame buffer is recycled the moment decode returns and
// the next encode on the connection writes over it.
func TestDecodedPayloadsSurviveFrameReuse(t *testing.T) {
	prover, err := core.NewProver(64, func(i uint64) []byte { return []byte{byte(i), byte(i >> 8), 7, 7} })
	if err != nil {
		t.Fatalf("NewProver: %v", err)
	}
	resp, err := prover.Respond([]uint64{3, 17, 17, 40})
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}
	respBytes, err := resp.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal response: %v", err)
	}
	sent := [][]byte{respBytes, {1, 2, 3}, nil}

	frame := encodeBatch([]taggedMsg{
		{TaskID: 1, Type: msgProofs, Payload: sent[0]},
		{TaskID: 2, Type: msgCommit, Payload: sent[1]},
		{TaskID: 3, Type: msgVerdictAck, Payload: sent[2]},
	})
	scratch, err := decodeBatch(nil, frame)
	if err != nil {
		t.Fatalf("decodeBatch: %v", err)
	}
	first := slices.Clone(scratch) // the inboxes' copies of the message headers
	var proof merkle.MultiProof
	if err := proof.UnmarshalAliased(first[0].Payload); err != nil {
		t.Fatalf("UnmarshalAliased: %v", err)
	}

	envelope := encodeRouted([]routedEntry{{Route: 5, Type: msgBatch, Payload: frame}, {Route: 6, Type: msgVerdict, Payload: []byte{1, 0}}})
	entries, err := decodeRouted(nil, envelope)
	if err != nil {
		t.Fatalf("decodeRouted: %v", err)
	}
	inner := bytes.Clone(frame)

	// The receiver is done with both buffers: scribble over them, recycle
	// them, and let the next frames of the same sizes draw them again.
	for _, buf := range [][]byte{frame, envelope} {
		for i := range buf {
			buf[i] = 0xff
		}
		transport.RecyclePayload(buf)
	}
	next := encodeBatch([]taggedMsg{
		{TaskID: 4, Type: msgProofs, Payload: bytes.Repeat([]byte{0xee}, len(sent[0]))},
		{TaskID: 5, Type: msgCommit, Payload: []byte{9, 9, 9}},
		{TaskID: 6, Type: msgVerdictAck},
	})
	if scratch, err = decodeBatch(scratch[:0], next); err != nil || len(scratch) != 3 {
		t.Fatalf("second decodeBatch: %d messages, %v", len(scratch), err)
	}

	for i, m := range first {
		if !bytes.Equal(m.Payload, sent[i]) {
			t.Errorf("message %d of the first batch changed under frame reuse: %x, sent %x", i, m.Payload, sent[i])
		}
	}
	if again, err := proof.MarshalBinary(); err != nil || !bytes.Equal(again, respBytes) {
		t.Errorf("the aliased multiproof changed under frame reuse (%v)", err)
	}
	if err := merkle.NewProofVerifier().VerifyMulti(prover.Commitment().Root, &proof); err != nil {
		t.Errorf("the aliased multiproof no longer verifies: %v", err)
	}
	if !bytes.Equal(entries[0].Payload, inner) || !bytes.Equal(entries[1].Payload, []byte{1, 0}) {
		t.Error("routed entries changed under envelope reuse")
	}
}
