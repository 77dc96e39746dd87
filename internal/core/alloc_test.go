//go:build !race

package core

import (
	"bytes"
	"slices"
	"testing"
)

// The race runtime allocates on its own, so the pins are excluded from race
// builds.

// TestExchangePathAllocs pins what a verified task's response costs at the
// benchmark's shapes: proving is the response plus the multiproof's three
// slabs, the encoder writes one exactly-sized buffer, the decoder one copy of
// the payload, the index list and one header slab, and verification — its
// climb state on the stack up to 64 samples, its digests in the scratch the
// task's ProofVerifier keeps — nothing at all in steady state.
func TestExchangePathAllocs(t *testing.T) {
	f := testFunction(7)
	for _, shape := range []struct{ n, m int }{{64, 8}, {256, 16}, {1 << 14, 64}} {
		p := honestProver(t, f, shape.n)
		v := seededVerifier(t, p.Commitment(), 3)
		ch, err := v.Challenge(shape.m)
		if err != nil {
			t.Fatalf("Challenge: %v", err)
		}
		var resp *Response
		if allocs := testing.AllocsPerRun(100, func() { resp, err = p.Respond(ch.Indices) }); allocs > 4 {
			t.Errorf("n=%d m=%d: Respond allocates %.1f, want <= 4", shape.n, shape.m, allocs)
		}
		if err != nil {
			t.Fatalf("Respond: %v", err)
		}
		var wire []byte
		if allocs := testing.AllocsPerRun(100, func() { wire, err = resp.MarshalBinary() }); allocs > 1 {
			t.Errorf("n=%d m=%d: MarshalBinary allocates %.1f, want <= 1", shape.n, shape.m, allocs)
		}
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		var decoded Response
		if allocs := testing.AllocsPerRun(100, func() { err = decoded.UnmarshalBinary(wire) }); allocs > 4 {
			t.Errorf("n=%d m=%d: UnmarshalBinary allocates %.1f, want <= 4", shape.n, shape.m, allocs)
		}
		if err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		// AcceptAnyOutput allocates nothing, so what is left is Verify's own.
		if allocs := testing.AllocsPerRun(100, func() { err = v.Verify(ch, &decoded, AcceptAnyOutput) }); allocs != 0 {
			t.Errorf("n=%d m=%d: Verify allocates %.1f in steady state, want 0", shape.n, shape.m, allocs)
		}
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
	}
}

// TestCommitmentChallengeCodecAllocs: the Step 1 and Step 2 messages encode
// into one exactly-sized buffer and decode into one slice each.
func TestCommitmentChallengeCodecAllocs(t *testing.T) {
	c := Commitment{Root: make([]byte, 32), N: 1 << 14}
	ch := Challenge{Indices: []uint64{3, 16000, 17, 17, 0, 63, 31, 9000}}
	var wire []byte
	var err error
	if allocs := testing.AllocsPerRun(100, func() { wire, err = c.MarshalBinary() }); allocs > 1 || err != nil {
		t.Errorf("Commitment.MarshalBinary allocates %.1f (%v), want <= 1", allocs, err)
	}
	var c2 Commitment
	if allocs := testing.AllocsPerRun(100, func() { err = c2.UnmarshalBinary(wire) }); allocs > 1 || err != nil {
		t.Errorf("Commitment.UnmarshalBinary allocates %.1f (%v), want <= 1", allocs, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { wire, err = ch.MarshalBinary() }); allocs > 1 || err != nil {
		t.Errorf("Challenge.MarshalBinary allocates %.1f (%v), want <= 1", allocs, err)
	}
	var ch2 Challenge
	if allocs := testing.AllocsPerRun(100, func() { err = ch2.UnmarshalBinary(wire) }); allocs > 1 || err != nil {
		t.Errorf("Challenge.UnmarshalBinary allocates %.1f (%v), want <= 1", allocs, err)
	}
}

// TestUnmarshalIntoAllocs: decoded into storage a previous message sized,
// the Step 1 and Step 2 messages cost nothing and read back what was sent.
func TestUnmarshalIntoAllocs(t *testing.T) {
	c := Commitment{Root: []byte("0123456789abcdef0123456789abcdef"), N: 1 << 14}
	ch := Challenge{Indices: []uint64{3, 16000, 17, 17, 0, 63, 31, 9000}}
	commitWire, err := c.MarshalBinary()
	if err != nil {
		t.Fatalf("Commitment.MarshalBinary: %v", err)
	}
	challengeWire, err := ch.MarshalBinary()
	if err != nil {
		t.Fatalf("Challenge.MarshalBinary: %v", err)
	}
	root, indices := make([]byte, 0, 32), make([]uint64, 0, 8)
	var c2 Commitment
	var ch2 Challenge
	if allocs := testing.AllocsPerRun(100, func() { err = c2.UnmarshalInto(root, commitWire) }); allocs != 0 || err != nil {
		t.Errorf("Commitment.UnmarshalInto allocates %.1f (%v), want 0", allocs, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { err = ch2.UnmarshalInto(indices, challengeWire) }); allocs != 0 || err != nil {
		t.Errorf("Challenge.UnmarshalInto allocates %.1f (%v), want 0", allocs, err)
	}
	if !bytes.Equal(c2.Root, c.Root) || c2.N != c.N || &c2.Root[0] != &root[:1][0] {
		t.Errorf("commitment decoded to %x/%d, want %x/%d in the caller's buffer", c2.Root, c2.N, c.Root, c.N)
	}
	if !slices.Equal(ch2.Indices, ch.Indices) || &ch2.Indices[0] != &indices[:1][0] {
		t.Errorf("challenge decoded to %v, want %v in the caller's buffer", ch2.Indices, ch.Indices)
	}
}
