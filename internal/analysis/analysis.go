// Package analysis provides the closed-form results of "Uncheatable Grid
// Computing" (Du et al., ICDCS 2004): the cheat-success probability of
// Theorem 3 (Eq. 2), the required sample size of Eq. 3 (Fig. 2), the
// storage/computation tradeoff of Section 3.3, and the attack economics of
// the non-interactive scheme (Section 4.2, Eq. 5).
//
// The functions here are pure math; the experiment harness cross-checks them
// against Monte-Carlo simulation of the actual protocol.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Errors reported by this package.
var (
	// ErrBadRatio is returned for honesty ratios outside [0, 1].
	ErrBadRatio = errors.New("analysis: honesty ratio must be in [0, 1]")
	// ErrBadGuessProb is returned for guess probabilities outside [0, 1].
	ErrBadGuessProb = errors.New("analysis: guess probability must be in [0, 1]")
	// ErrBadEpsilon is returned for detection thresholds outside (0, 1).
	ErrBadEpsilon = errors.New("analysis: epsilon must be in (0, 1)")
	// ErrBadSamples is returned for non-positive sample counts.
	ErrBadSamples = errors.New("analysis: sample count must be >= 1")
	// ErrUnachievable is returned when no finite sample size reaches the
	// requested detection threshold (r + (1-r)q = 1).
	ErrUnachievable = errors.New("analysis: no finite sample size achieves epsilon")
)

// CheatSuccessProb returns Eq. 2 of Theorem 3: the probability that a
// participant with honesty ratio r survives m uniform samples when a guessed
// result is correct with probability q,
//
//	Pr = (r + (1-r)·q)^m.
func CheatSuccessProb(r, q float64, m int) (float64, error) {
	if err := validateRQ(r, q); err != nil {
		return 0, err
	}
	if m < 1 {
		return 0, fmt.Errorf("%w: got %d", ErrBadSamples, m)
	}
	return math.Pow(perSampleSurvival(r, q), float64(m)), nil
}

// DetectionProb returns 1 - CheatSuccessProb: the probability the supervisor
// catches the cheater.
func DetectionProb(r, q float64, m int) (float64, error) {
	p, err := CheatSuccessProb(r, q, m)
	if err != nil {
		return 0, err
	}
	return 1 - p, nil
}

// RequiredSamples returns Eq. 3: the minimum sample count m such that the
// cheat-success probability stays below epsilon,
//
//	m ≥ log ε / log (r + (1-r)q).
//
// The paper's Fig. 2 plots this function for q = 0 and q = 0.5 at ε = 1e-4.
func RequiredSamples(epsilon, r, q float64) (int, error) {
	if !(epsilon > 0 && epsilon < 1) {
		return 0, fmt.Errorf("%w: got %v", ErrBadEpsilon, epsilon)
	}
	if err := validateRQ(r, q); err != nil {
		return 0, err
	}
	s := perSampleSurvival(r, q)
	if s >= 1 {
		return 0, fmt.Errorf("%w: r=%v q=%v", ErrUnachievable, r, q)
	}
	if s <= 0 {
		return 1, nil // every sample catches the cheater
	}
	m := math.Log(epsilon) / math.Log(s)
	return int(math.Ceil(m)), nil
}

// perSampleSurvival is r + (1-r)q, the probability one sample fails to
// expose the cheater.
func perSampleSurvival(r, q float64) float64 {
	return r + (1-r)*q
}

func validateRQ(r, q float64) error {
	if !(r >= 0 && r <= 1) {
		return fmt.Errorf("%w: got %v", ErrBadRatio, r)
	}
	if !(q >= 0 && q <= 1) {
		return fmt.Errorf("%w: got %v", ErrBadGuessProb, q)
	}
	return nil
}

// RCO returns the relative computation overhead of Section 3.3 for a
// participant that stores S tree-node slots and answers m samples:
//
//	rco = m·2^ℓ / |D| = 2m / S.
//
// It is independent of the domain size — the paper's central storage
// observation.
func RCO(m int, storedNodes int) (float64, error) {
	if m < 1 {
		return 0, fmt.Errorf("%w: got %d", ErrBadSamples, m)
	}
	if storedNodes < 2 {
		return 0, fmt.Errorf("analysis: stored node count must be >= 2, got %d", storedNodes)
	}
	return 2 * float64(m) / float64(storedNodes), nil
}

// StoredNodesFor returns S = 2^(H-ℓ+1), the node slots needed to store a
// height-H tree down to level H-ℓ.
func StoredNodesFor(height, ell int) (int, error) {
	if height < 0 || ell < 0 || ell > height {
		return 0, fmt.Errorf("analysis: need 0 <= ℓ <= H, got ℓ=%d H=%d", ell, height)
	}
	return 1 << (height - ell + 1), nil
}

// RebuildCost returns 2^ℓ, the number of f evaluations needed to rebuild one
// discarded subtree during a proof (Section 3.3).
func RebuildCost(ell int) (int64, error) {
	if ell < 0 || ell > 62 {
		return 0, fmt.Errorf("analysis: subtree height out of range: %d", ell)
	}
	return 1 << ell, nil
}

// ExpectedRerollAttempts returns 1/r^m, the expected number of tree rebuilds
// the Section 4.2 re-rolling attacker performs before all m self-derived
// samples land in D'. Returns +Inf for r = 0.
func ExpectedRerollAttempts(r float64, m int) (float64, error) {
	if !(r >= 0 && r <= 1) {
		return 0, fmt.Errorf("%w: got %v", ErrBadRatio, r)
	}
	if m < 1 {
		return 0, fmt.Errorf("%w: got %d", ErrBadSamples, m)
	}
	if r == 0 {
		return math.Inf(1), nil
	}
	return math.Pow(r, -float64(m)), nil
}

// AttackCost captures both sides of the Eq. 5 inequality in units of the
// base hash cost.
type AttackCost struct {
	// Cheating is the expected attack cost (1/r^m)·m·C_g, with C_g = k
	// base hashes per application of g.
	Cheating float64
	// Honest is the cost n·C_f of computing the whole task.
	Honest float64
}

// Uneconomical reports whether cheating costs at least as much as honest
// computation — the paper's condition for calling the scheme uncheatable.
func (c AttackCost) Uneconomical() bool { return c.Cheating >= c.Honest }

// RerollAttackCost evaluates Eq. 5 for a domain of n inputs where one f
// evaluation costs fCost base hashes and g applies the base hash k times.
func RerollAttackCost(n float64, fCost float64, r float64, m int, k int) (AttackCost, error) {
	if n <= 0 || fCost <= 0 || k < 1 {
		return AttackCost{}, fmt.Errorf("analysis: need n>0, fCost>0, k>=1 (n=%v fCost=%v k=%d)", n, fCost, k)
	}
	attempts, err := ExpectedRerollAttempts(r, m)
	if err != nil {
		return AttackCost{}, err
	}
	return AttackCost{
		Cheating: attempts * float64(m) * float64(k),
		Honest:   n * fCost,
	}, nil
}

// RequiredChainIterations returns the minimum k (base-hash iterations inside
// g ≡ hash^k) that satisfies Eq. 5,
//
//	(1/r^m)·m·k ≥ n·C_f  ⇒  k ≥ n·C_f·r^m / m,
//
// i.e. makes the expected re-rolling attack at least as expensive as honest
// computation. Returns 1 when even a single-iteration g already suffices.
func RequiredChainIterations(n float64, fCost float64, r float64, m int) (float64, error) {
	if n <= 0 || fCost <= 0 {
		return 0, fmt.Errorf("analysis: need n>0 and fCost>0 (n=%v fCost=%v)", n, fCost)
	}
	if !(r > 0 && r <= 1) {
		return 0, fmt.Errorf("%w: got %v (attack cost undefined at r=0)", ErrBadRatio, r)
	}
	if m < 1 {
		return 0, fmt.Errorf("%w: got %d", ErrBadSamples, m)
	}
	k := n * fCost * math.Pow(r, float64(m)) / float64(m)
	if k < 1 {
		return 1, nil
	}
	return math.Ceil(k), nil
}

// HonestChainOverhead returns the ratio between the honest participant's
// sample-generation cost (m·C_g) and its task cost (n·C_f) when k is chosen
// to exactly satisfy Eq. 5. Per Section 4.2 this ratio is about r^m, i.e.
// negligible for useful sample counts.
func HonestChainOverhead(n float64, fCost float64, r float64, m int) (float64, error) {
	k, err := RequiredChainIterations(n, fCost, r, m)
	if err != nil {
		return 0, err
	}
	return float64(m) * k / (n * fCost), nil
}

// NaiveCommunicationBytes estimates the per-participant upload of the naive
// sampling scheme: all n results of resultSize bytes each. The product
// leaves int64 at the domain sizes the paper argues from (2^62 inputs of 8
// bytes are 2^65 B), hence the float.
func NaiveCommunicationBytes(n int64, resultSize int64) float64 {
	return float64(n) * float64(resultSize)
}

// CBSCommunicationBytes is the paper's bound on the per-participant upload of
// the CBS scheme (Section 3.1, Step 3): one commitment digest plus, per
// sample, the result and ⌈log2 n⌉ sibling digests — m independent audit
// paths. The response this repository sends is one multiproof, which never
// repeats a sibling the paths share; CBSMultiproofBytes models that.
func CBSCommunicationBytes(n int64, resultSize, digestSize int64, m int64) int64 {
	if n < 1 {
		return 0
	}
	return digestSize + m*(resultSize+treeHeight(n)*digestSize)
}

// treeHeight is ⌈log2 n⌉ via bit length; avoids overflow for n near 2^63.
func treeHeight(n int64) int64 {
	return int64(bits.Len64(uint64(n - 1)))
}

// hitProb is the probability that at least one of m uniform draws lands in
// a fraction frac of the domain, 1 - (1-frac)^m, computed so that it keeps
// its precision when frac is as small as 2^-62.
func hitProb(frac float64, m int64) float64 {
	return -math.Expm1(float64(m) * math.Log1p(-frac))
}

// siblingsAtDepth is the expected number of the 2^depth nodes at that depth
// (the root is depth 0) a multiproof of m uniform samples carries as
// siblings: a node is sent when some sample lies under its parent and none
// under the node itself.
func siblingsAtDepth(depth int, m int64) float64 {
	under := math.Ldexp(1, -depth) // the fraction of the leaves under one node
	return math.Ldexp(1, depth) * (hitProb(2*under, m) - hitProb(under, m))
}

// ExpectedMultiproofSiblings returns the expected number of sibling values
// in the Merkle multiproof of m samples drawn uniformly with replacement
// from an n-leaf tree,
//
//	Σ_{l=1..H} 2^l · [(1 - 2^-l)^m - (1 - 2^(1-l))^m],  H = log2 n,
//
// against the m·H of m separate audit paths: 18.9 of 48 at n=64, m=8, 260.3
// of 448 at n=16384, m=32. n must be a power of two — every domain the
// figures and the benchmark use is; for other n the sum runs over the padded
// tree's ⌈log2 n⌉ levels with the samples spread over all of it, which is
// close but not exact.
func ExpectedMultiproofSiblings(n, m int64) float64 {
	if n < 1 || m < 1 {
		return 0
	}
	total := 0.0
	for depth := 1; depth <= int(treeHeight(n)); depth++ {
		total += siblingsAtDepth(depth, m)
	}
	return total
}

// CBSMultiproofBytes returns the expected per-participant upload of the CBS
// scheme as this repository encodes it: the commitment digest plus the
// encoded multiproof (merkle.MultiProof.MarshalBinary) — each distinct
// sample's index gap and result, each leaf-level sibling (a result), each
// sibling above (a digest), every field behind its length prefix. It sits
// below CBSCommunicationBytes by the siblings the m paths share. n must be a
// power of two, as for ExpectedMultiproofSiblings.
func CBSMultiproofBytes(n int64, resultSize, digestSize int64, m int64) float64 {
	if n < 1 || m < 1 {
		return 0
	}
	distinct := float64(n) * hitProb(1/float64(n), m)
	siblings := ExpectedMultiproofSiblings(n, m)
	leafSiblings := 0.0
	if height := int(treeHeight(n)); height > 0 {
		leafSiblings = siblingsAtDepth(height, m)
	}
	field := func(size int64) float64 { return float64(uvarintLen(size) + size) }
	header := float64(uvarintLen(n) + uvarintLen(m) + uvarintLen(int64(siblings)))
	gap := float64(uvarintLen(n / m)) // a typical index gap
	return float64(digestSize) + header +
		distinct*(gap+field(resultSize)) +
		leafSiblings*field(resultSize) +
		(siblings-leafSiblings)*field(digestSize)
}

// uvarintLen reports how many bytes the wire's varint encoding takes for v.
func uvarintLen(v int64) int64 {
	return int64(bits.Len64(uint64(v)|1)+6) / 7
}
