package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"uncheatgrid/internal/workload"
)

func TestCommitmentRoundTrip(t *testing.T) {
	c := Commitment{Root: []byte{1, 2, 3, 4}, N: 1 << 40}
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if len(data) != c.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), c.EncodedSize())
	}
	var decoded Commitment
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if !bytes.Equal(decoded.Root, c.Root) || decoded.N != c.N {
		t.Fatalf("decoded %+v, want %+v", decoded, c)
	}
}

func TestCommitmentMarshalRejectsEmpty(t *testing.T) {
	var c Commitment
	if _, err := c.MarshalBinary(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestCommitmentUnmarshalRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{name: "empty", data: nil},
		{name: "zero root length", data: []byte{0x00, 0x05}},
		{name: "truncated root", data: []byte{0x10, 0x01}},
		{name: "missing n", data: []byte{0x01, 0xaa}},
		{name: "trailing", data: []byte{0x01, 0xaa, 0x05, 0xff}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var c Commitment
			if err := c.UnmarshalBinary(tt.data); !errors.Is(err, ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
		})
	}
}

func TestChallengeRoundTrip(t *testing.T) {
	ch := Challenge{Indices: []uint64{0, 7, 1 << 50, 3}}
	data, err := ch.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if len(data) != ch.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), ch.EncodedSize())
	}
	var decoded Challenge
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if len(decoded.Indices) != len(ch.Indices) {
		t.Fatalf("decoded %d indices, want %d", len(decoded.Indices), len(ch.Indices))
	}
	for k := range ch.Indices {
		if decoded.Indices[k] != ch.Indices[k] {
			t.Fatalf("index %d: %d != %d", k, decoded.Indices[k], ch.Indices[k])
		}
	}
}

// TestCommitmentChallengeGoldenBytes pins the Step 1 and Step 2 encodings
// byte for byte: they predate the slice-walking codecs and peers, resume
// records and checkpoints hold them.
func TestCommitmentChallengeGoldenBytes(t *testing.T) {
	c := Commitment{Root: []byte{0xde, 0xad, 0xbe, 0xef}, N: 300}
	wantC := []byte{0x04, 0xde, 0xad, 0xbe, 0xef, 0xac, 0x02}
	if got, err := c.MarshalBinary(); err != nil || !bytes.Equal(got, wantC) {
		t.Fatalf("Commitment.MarshalBinary = %x (%v), want %x", got, err, wantC)
	}
	ch := Challenge{Indices: []uint64{0, 127, 128, 1 << 14, 5}}
	wantCh := []byte{0x05, 0x00, 0x7f, 0x80, 0x01, 0x80, 0x80, 0x01, 0x05}
	if got, err := ch.MarshalBinary(); err != nil || !bytes.Equal(got, wantCh) {
		t.Fatalf("Challenge.MarshalBinary = %x (%v), want %x", got, err, wantCh)
	}
	// Non-canonical varints decoded before and still do.
	var c2 Commitment
	if err := c2.UnmarshalBinary([]byte{0x81, 0x00, 0xaa, 0x85, 0x00}); err != nil || c2.N != 5 || !bytes.Equal(c2.Root, []byte{0xaa}) {
		t.Fatalf("non-canonical commitment: %+v, %v", c2, err)
	}
	// The decoded root is a copy.
	wire := append([]byte(nil), wantC...)
	if err := c2.UnmarshalBinary(wire); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	wire[1] ^= 0xff
	if !bytes.Equal(c2.Root, c.Root) {
		t.Fatal("Commitment.UnmarshalBinary kept a reference to its input")
	}
}

func TestChallengeUnmarshalBounds(t *testing.T) {
	var ch Challenge
	if err := ch.UnmarshalBinary([]byte{0x00}); !errors.Is(err, ErrProtocol) {
		t.Errorf("zero count: err = %v, want ErrProtocol", err)
	}
	// Count of 2^40 must be rejected before allocation.
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if err := ch.UnmarshalBinary(huge); !errors.Is(err, ErrProtocol) {
		t.Errorf("huge count: err = %v, want ErrProtocol", err)
	}
	// A count inside the cap but past the bytes that follow sizes nothing.
	short := []byte{0x80, 0x80, 0x40, 0x01, 0x02}
	if err := ch.UnmarshalBinary(short); !errors.Is(err, ErrProtocol) {
		t.Errorf("count past the payload: err = %v, want ErrProtocol", err)
	}
	for _, data := range [][]byte{{0x02, 0x01}, {0x01, 0x01, 0x02}, {0x01, 0x80}} {
		if err := ch.UnmarshalBinary(data); !errors.Is(err, ErrProtocol) {
			t.Errorf("%x: err = %v, want ErrProtocol", data, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	f := workload.NewSynthetic(3, 1, 64)
	p := honestProver(t, f, 33)
	resp, err := p.Respond([]uint64{0, 13, 32})
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}
	data, err := resp.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if len(data) != resp.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), resp.EncodedSize())
	}
	var decoded Response
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}

	// The decoded response must still verify end to end.
	v := seededVerifier(t, p.Commitment(), 4)
	ch := Challenge{Indices: []uint64{0, 13, 32}}
	if err := v.Verify(ch, &decoded, recompute(f)); err != nil {
		t.Fatalf("Verify(decoded): %v", err)
	}
}

func TestResponseMarshalRejectsEmpty(t *testing.T) {
	var resp Response
	if _, err := resp.MarshalBinary(); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty: err = %v, want ErrProtocol", err)
	}
	var nilResp *Response
	if _, err := nilResp.MarshalBinary(); !errors.Is(err, ErrProtocol) {
		t.Errorf("nil: err = %v, want ErrProtocol", err)
	}
}

func TestResponseUnmarshalRejectsGarbage(t *testing.T) {
	f := workload.NewSynthetic(4, 1, 64)
	p := honestProver(t, f, 16)
	resp, err := p.Respond([]uint64{5})
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}
	data, err := resp.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}

	for cut := 0; cut < len(data); cut += 5 {
		var d Response
		if err := d.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	var d Response
	if err := d.UnmarshalBinary(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("accepted trailing byte")
	}
}

func TestWireQuickRoundTrips(t *testing.T) {
	f := func(rootSeed uint64, n uint64, indices []uint64) bool {
		root := make([]byte, 32)
		rand.New(rand.NewSource(int64(rootSeed))).Read(root)
		c := Commitment{Root: root, N: n%(1<<62) + 1}
		data, err := c.MarshalBinary()
		if err != nil {
			return false
		}
		var dc Commitment
		if err := dc.UnmarshalBinary(data); err != nil {
			return false
		}
		if !bytes.Equal(dc.Root, c.Root) || dc.N != c.N {
			return false
		}
		if len(indices) == 0 {
			return true
		}
		ch := Challenge{Indices: indices}
		cdata, err := ch.MarshalBinary()
		if err != nil {
			return false
		}
		var dch Challenge
		if err := dch.UnmarshalBinary(cdata); err != nil {
			return false
		}
		if len(dch.Indices) != len(indices) {
			return false
		}
		for k := range indices {
			if dch.Indices[k] != indices[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseSizeScalesLogarithmically(t *testing.T) {
	// §3.1: total communication for m samples is O(m log n).
	f := workload.NewSynthetic(5, 1, 64)
	size := func(n int) int {
		p := honestProver(t, f, n)
		resp, err := p.Respond([]uint64{uint64(n / 2)})
		if err != nil {
			t.Fatalf("Respond: %v", err)
		}
		return resp.EncodedSize()
	}
	small, large := size(1<<8), size(1<<14)
	if large >= 2*small {
		t.Fatalf("response size not logarithmic: n=2^8 → %dB, n=2^14 → %dB", small, large)
	}
}
