package grid

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
)

// The values below were recorded from the crypto/sha256 code that preceded
// the shortsha kernel. Each is a byte either side of a link derives on its
// own, so a change to how they are hashed must leave every one unmoved.

// TestTaskAndFaultSeedsMatchRecorded pins the per-task randomness and the
// per-dial fault plans.
func TestTaskAndFaultSeedsMatchRecorded(t *testing.T) {
	for _, g := range []struct {
		seed int64
		id   uint64
		want int64
	}{
		{3, 1, -5456144790996748645},
		{-7, 1 << 40, -5258510505714373365},
		{0, 0, -3054159662337734857},
	} {
		if got := taskSeed(g.seed, g.id); got != g.want {
			t.Errorf("taskSeed(%d, %d) = %d, recorded %d", g.seed, g.id, got, g.want)
		}
	}
	if got := faultSeed(1, 0, 0, 0); got != -4698627539269398527 {
		t.Errorf("faultSeed(1, 0, 0, 0) = %d", got)
	}
	if got := faultSeed(99, 3, 2, 1); got != 2226768856336313313 {
		t.Errorf("faultSeed(99, 3, 2, 1) = %d", got)
	}
}

// TestWindowDigestsMatchRecorded pins the four window helpers.
func TestWindowDigestsMatchRecorded(t *testing.T) {
	for name, g := range map[string]struct {
		got  []byte
		want string
	}{
		"streamDigest":     {streamDigest(7, SchemeCBS, []byte("root")), "d94a693c4d237bf72109a6f43005736ccdad7971753223f5a8fd29dbdd62c585"},
		"hashResults":      {hashResults([][]byte{{1, 2}, {}, []byte("abc")}), "c40acc03665e42d34d063571a9b38f4690ef6dd4922a4f75f7682ff61cf123bf"},
		"hashIndices":      {hashIndices([]uint64{5, 1 << 33}), "8563412a5be2f28ea53c680b4b83c0996c51f18f02760272e027f162cdcf9ceb"},
		"windowCursorSeed": {windowCursorSeed(windowSpec(4, 2)), "9d65afb204552141b9764208e5d1b7fcd7cb56e0659262e0e7513e7e51c215d8"},
	} {
		if hex.EncodeToString(g.got) != g.want {
			t.Errorf("%s = %x, recorded %s", name, g.got, g.want)
		}
	}
}

// participantV1Fixture is the file checkpointWithWindows wrote in format
// version 1, which also held the frontier of a full-stream Merkle tree.
const participantV1Fixture = "testdata/participant-v1.ckpt"

// checkpointWithWindows writes a participant checkpoint holding one
// committed window, two pending digests and the cursor — every hash the
// window machinery takes — and returns the file.
func checkpointWithWindows(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	p, err := NewParticipant("worker-1", HonestFactory, WithCheckpointDir(dir))
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	spec := windowSpec(4, 2)
	pw, err := p.windowsFor(spec)
	if err != nil {
		t.Fatalf("windowsFor: %v", err)
	}
	for id := uint64(0); id < 6; id++ {
		digest := streamDigest(id, spec.Kind, hashResults([][]byte{{byte(id)}}))
		if err := pw.settle(id, digest, func(uint8, []byte) error { return nil }); err != nil {
			t.Fatalf("settle: %v", err)
		}
	}
	if err := p.WriteCheckpoint(9); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	data, err := os.ReadFile(participantCheckpointPath(dir, "worker-1"))
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	return data
}

// TestCheckpointFileMatchesRecorded pins the version-2 file.
func TestCheckpointFileMatchesRecorded(t *testing.T) {
	data := checkpointWithWindows(t)
	const want = "164d75c1c757405659da2bd63a587a82a4efa7ce95ceb7c43d5468470118fd61"
	if sum := sha256.Sum256(data); len(data) != 132 || hex.EncodeToString(sum[:]) != want {
		t.Errorf("checkpoint file: %d bytes hashing to %x, recorded 132 bytes hashing to %s", len(data), sum, want)
	}
}

// TestCheckpointV1FixtureRestores holds the format change to the one field
// it drops. The version-1 file of the same state restores to what the
// version-2 file restores to, and the version-2 file is the version-1 file
// with version byte 2, the trailing 78-byte frontier field cut, and the
// length prefix and CRC recomputed.
func TestCheckpointV1FixtureRestores(t *testing.T) {
	v1, err := os.ReadFile(participantV1Fixture)
	if err != nil {
		t.Fatalf("read the version-1 fixture: %v", err)
	}
	const v1Sum = "df4bf433f01dfa4dbf1c89b1238bdd05530be23e8dee282c208af7176a710954"
	if sum := sha256.Sum256(v1); len(v1) != 211 || hex.EncodeToString(sum[:]) != v1Sum {
		t.Fatalf("fixture: %d bytes hashing to %x, recorded 211 bytes hashing to %s", len(v1), sum, v1Sum)
	}
	v2 := checkpointWithWindows(t)

	// 5 bytes of magic and version, a 2-byte length (200), 4 of CRC.
	cut := v1[5+2 : len(v1)-4-v1FrontierField]
	want := binary.AppendUvarint([]byte("UGCP\x02"), uint64(len(cut)))
	want = append(want, cut...)
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	if !bytes.Equal(v2, want) {
		t.Errorf("version-2 file\n%x\nis not the fixture minus its frontier\n%x", v2, want)
	}

	restore := func(file []byte) participantView {
		dir := t.TempDir()
		if err := os.WriteFile(participantCheckpointPath(dir, "worker-1"), file, 0o644); err != nil {
			t.Fatalf("write checkpoint: %v", err)
		}
		p, err := NewParticipant("worker-1", HonestFactory, WithCheckpointDir(dir))
		if err != nil {
			t.Fatalf("NewParticipant: %v", err)
		}
		seq, ok, err := p.RestoreCheckpoint()
		if err != nil || !ok {
			t.Fatalf("RestoreCheckpoint = (%d, %v, %v)", seq, ok, err)
		}
		return viewParticipant(p, seq)
	}
	got, wantView := restore(v1), restore(v2)
	if !reflect.DeepEqual(got, wantView) {
		t.Fatalf("version-1 fixture restores to\n%+v\nversion-2 file to\n%+v", got, wantView)
	}
	if w := got.Windows; got.Seq != 9 || w == nil || w.Commits != 1 || w.Cursor.Window != 1 || len(w.IDs) != 2 {
		t.Fatalf("fixture restored %+v, want seq 9, one commit, two pending tasks", got)
	}
}
