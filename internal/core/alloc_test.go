//go:build !race

package core

import "testing"

// The race runtime allocates on its own, so the pins are excluded from race
// builds.

// TestExchangePathAllocs pins what a verified task's response costs at the
// benchmark's smallest shape (n=64, m=8): the encoder writes one
// exactly-sized buffer, the decoder carves proofs and sibling headers from
// slabs over one copy of the payload, and verification reuses the hash state
// NewVerifier set up.
func TestExchangePathAllocs(t *testing.T) {
	f := testFunction(7)
	p := honestProver(t, f, 64)
	v := seededVerifier(t, p.Commitment(), 3)
	ch, err := v.Challenge(8)
	if err != nil {
		t.Fatalf("Challenge: %v", err)
	}
	var resp *Response
	if allocs := testing.AllocsPerRun(100, func() { resp, err = p.Respond(ch.Indices) }); allocs > 5 {
		t.Errorf("Respond allocates %.1f, want <= 5", allocs)
	}
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}
	var wire []byte
	if allocs := testing.AllocsPerRun(100, func() { wire, err = resp.MarshalBinary() }); allocs > 2 {
		t.Errorf("MarshalBinary allocates %.1f, want <= 2", allocs)
	}
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var decoded Response
	if allocs := testing.AllocsPerRun(100, func() { err = decoded.UnmarshalBinary(wire) }); allocs > 8 {
		t.Errorf("UnmarshalBinary allocates %.1f, want <= 8", allocs)
	}
	if err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	// AcceptAnyOutput allocates nothing, so what is left is Verify's own.
	if allocs := testing.AllocsPerRun(100, func() { err = v.Verify(ch, &decoded, AcceptAnyOutput) }); allocs > 2 {
		t.Errorf("Verify allocates %.1f in steady state, want <= 2", allocs)
	}
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
