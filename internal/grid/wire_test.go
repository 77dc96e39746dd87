package grid

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
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
			encodeCredit(creditMsg{Route: 0, Bytes: 1, Window: 1}),
			encodeCredit(creditMsg{Route: 999, Bytes: 256 << 10, Window: 256 << 10}),
			encodeCredit(creditMsg{Route: 3, Bytes: 32 << 10, Window: maxCreditGrant}),
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
				Proofs:  [][]byte{{0x01, 0x02}, nil},
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
