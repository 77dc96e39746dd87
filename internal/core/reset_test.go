package core

import (
	"bytes"
	"crypto/md5"
	"errors"
	"math/rand"
	"testing"

	"uncheatgrid/internal/merkle"
)

// resetCase is one task a prover and a verifier are moved onto: its size, its
// options, the index whose committed value is a lie (none when negative) and
// whether the liar answers with the true value after the fact.
type resetCase struct {
	name    string
	n, m    int
	seed    uint64
	opts    []Option
	lieAt   int
	posthoc bool
}

// runResetCase commits prover to tc, audits it with verifier and returns
// everything an observer can see: the commitment, the challenge, the response
// bytes, and the verdict with its convicted index (-1 when accepted).
func runResetCase(t *testing.T, tc resetCase, prover *Prover, verifier *Verifier) (root []byte, challenge []uint64, resp []byte, verdict error, convicted int64) {
	t.Helper()
	f := testFunction(tc.seed)
	// The claims come a run at a time, as the participant's commit pass
	// makes them, the lie flipped in place.
	run := func(dst []byte, lo int, ends []int) []byte {
		start := len(dst)
		dst = f.AppendEvalBatch(dst, uint64(lo), ends)
		if j := tc.lieAt - lo; tc.lieAt >= 0 && j >= 0 && j < len(ends) {
			if j > 0 {
				start = ends[j-1]
			}
			dst[start] ^= 0xff
		}
		return dst
	}
	if err := prover.Reset(tc.n, run, tc.opts...); err != nil {
		t.Fatalf("%s: Prover.Reset: %v", tc.name, err)
	}
	c := prover.Commitment()
	opts := append([]Option{WithRand(rand.New(rand.NewSource(int64(tc.seed))))}, tc.opts...)
	if err := verifier.Reset(c, opts...); err != nil {
		t.Fatalf("%s: Verifier.Reset: %v", tc.name, err)
	}
	ch, err := verifier.Challenge(tc.m)
	if err != nil {
		t.Fatalf("%s: Challenge: %v", tc.name, err)
	}
	if tc.lieAt >= 0 {
		ch.Indices[len(ch.Indices)/2] = uint64(tc.lieAt)
	}
	r, err := prover.Respond(ch.Indices)
	if err != nil {
		t.Fatalf("%s: Respond: %v", tc.name, err)
	}
	if tc.posthoc {
		v, _ := r.Proof.Value(uint64(tc.lieAt))
		copy(v, f.Eval(uint64(tc.lieAt))) // the true value, spliced in after the sample is known
	}
	wire, err := r.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: MarshalBinary: %v", tc.name, err)
	}
	var decoded Response
	if err := decoded.UnmarshalBinary(wire); err != nil {
		t.Fatalf("%s: UnmarshalBinary: %v", tc.name, err)
	}
	verdict = verifier.Verify(ch, &decoded, recompute(f))
	convicted = -1
	var cheatErr *CheatError
	if errors.As(verdict, &cheatErr) {
		convicted = int64(cheatErr.Index)
	}
	return bytes.Clone(c.Root), ch.Indices, wire, verdict, convicted
}

// TestResetEqualsFresh: a Prover and a Verifier that Reset from task to task
// — larger, smaller, another hasher, storage-bounded and back, honest and
// convicted either way — show exactly what a new pair built for each task
// shows: commitment, challenge, response bytes, verdict, convicted index.
func TestResetEqualsFresh(t *testing.T) {
	md5Trees := WithTreeOptions(merkle.WithHasher(md5.New))
	cases := []resetCase{
		{name: "honest n=64", n: 64, m: 8, seed: 1, lieAt: -1},
		{name: "larger, wrong output", n: 1000, m: 16, seed: 2, lieAt: 617},
		{name: "smaller, post-hoc fix", n: 37, m: 5, seed: 3, lieAt: 9, posthoc: true},
		{name: "md5", n: 300, m: 12, seed: 4, opts: []Option{md5Trees}, lieAt: -1},
		{name: "storage-bounded", n: 128, m: 7, seed: 5, opts: []Option{WithSubtreeHeight(3)}, lieAt: 100},
		{name: "full again", n: 128, m: 7, seed: 6, lieAt: -1},
		{name: "one leaf", n: 1, m: 2, seed: 7, lieAt: -1},
		{name: "honest n=64 again", n: 64, m: 8, seed: 1, lieAt: -1},
	}
	prover, verifier := new(Prover), new(Verifier)
	for _, tc := range cases {
		root, ch, resp, verdict, convicted := runResetCase(t, tc, prover, verifier)
		wantRoot, wantCh, wantResp, wantVerdict, wantConvicted := runResetCase(t, tc, new(Prover), new(Verifier))
		if !bytes.Equal(root, wantRoot) {
			t.Errorf("%s: reset prover commits %x, a fresh one %x", tc.name, root, wantRoot)
		}
		if len(ch) != len(wantCh) || !bytes.Equal(resp, wantResp) {
			t.Errorf("%s: reset pair's challenge or response bytes differ from a fresh pair's", tc.name)
		}
		for k := range ch {
			if ch[k] != wantCh[k] {
				t.Errorf("%s: challenge index %d is %d, fresh %d", tc.name, k, ch[k], wantCh[k])
			}
		}
		if (verdict == nil) != (wantVerdict == nil) || (verdict != nil && verdict.Error() != wantVerdict.Error()) || convicted != wantConvicted {
			t.Errorf("%s: reset verifier rules %v (index %d), a fresh one %v (index %d)", tc.name, verdict, convicted, wantVerdict, wantConvicted)
		}
		switch {
		case tc.lieAt < 0 && verdict != nil:
			t.Errorf("%s: honest task rejected: %v", tc.name, verdict)
		case tc.lieAt >= 0 && tc.posthoc && (!errors.Is(verdict, ErrCommitmentMismatch) || convicted != int64(ch[0])):
			t.Errorf("%s: verdict %v at %d, want ErrCommitmentMismatch at the first challenged index %d", tc.name, verdict, convicted, ch[0])
		case tc.lieAt >= 0 && !tc.posthoc && (!errors.Is(verdict, ErrWrongOutput) || convicted != int64(tc.lieAt)):
			t.Errorf("%s: verdict %v at %d, want ErrWrongOutput at %d", tc.name, verdict, convicted, tc.lieAt)
		}
	}
}

// TestResetRefusesWhatConstructorsRefuse: Reset is the constructors' one
// validation, and a refused Reset leaves an object the next Reset recovers.
func TestResetRefusesWhatConstructorsRefuse(t *testing.T) {
	f := testFunction(9)
	prover := honestProver(t, f, 64)
	nilLeaves := merkle.PerLeaf(func(int) []byte { return nil })
	if err := prover.Reset(0, nilLeaves); !errors.Is(err, ErrBadDomain) {
		t.Errorf("Prover.Reset(0): err = %v, want ErrBadDomain", err)
	}
	if err := prover.Reset(8, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("Prover.Reset(nil claim): err = %v, want ErrProtocol", err)
	}
	if err := prover.Reset(8, nilLeaves); !errors.Is(err, merkle.ErrNilLeaf) {
		t.Errorf("Prover.Reset over nil leaves: err = %v, want merkle.ErrNilLeaf", err)
	}
	if err := prover.Reset(32, merkle.PerLeaf(func(i int) []byte { return f.Eval(uint64(i)) })); err != nil {
		t.Fatalf("Prover.Reset after the refusals: %v", err)
	}
	if want := honestProver(t, f, 32).Commitment(); !bytes.Equal(prover.Commitment().Root, want.Root) || prover.N() != 32 {
		t.Error("prover reset after refused Resets differs from a fresh one")
	}
	verifier := seededVerifier(t, prover.Commitment(), 1)
	if err := verifier.Reset(Commitment{Root: []byte{1}, N: 0}); !errors.Is(err, ErrBadDomain) {
		t.Errorf("Verifier.Reset(N=0): err = %v, want ErrBadDomain", err)
	}
	if err := verifier.Reset(Commitment{N: 4}); !errors.Is(err, ErrProtocol) {
		t.Errorf("Verifier.Reset(empty root): err = %v, want ErrProtocol", err)
	}
	if got := verifier.Commitment(); !bytes.Equal(got.Root, prover.Commitment().Root) || got.N != 32 {
		t.Error("a refused Verifier.Reset changed the commitment under audit")
	}
}
