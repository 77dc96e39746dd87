// Package workload provides the computations f evaluated by grid
// participants, together with the screeners S of Section 2.1 of
// "Uncheatable Grid Computing" (Du et al., ICDCS 2004) and the guess model
// f̌ of the semi-honest cheater (Section 2.2).
//
// The CBS scheme treats f as a black box; what matters for the experiments
// are (a) its evaluation cost, (b) how expensive verification of a single
// output is relative to recomputation, and (c) the probability q that a
// cheater guesses f(x) correctly without computing it (Theorem 3). Each
// implementation documents where it sits on those axes.
//
// The concrete workloads mirror the applications the paper's introduction
// motivates: brute-force keyspace search (its running example), drug-candidate
// screening (IBM smallpox grid), radio-signal analysis (SETI@home), Mersenne
// prime testing (GIMPS), and integer factoring (the "verification is trivial"
// example of Section 3.1).
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Errors reported by this package.
var (
	// ErrUnknownFunction is returned by the registry for unregistered names.
	ErrUnknownFunction = errors.New("workload: unknown function")
)

// Function is the computation f assigned to participants, defined over a
// uint64 input domain. Implementations must be deterministic and safe for
// concurrent use.
//
// AppendEval is the primitive: it appends exactly the bytes of f(x) to dst
// and returns the extended slice, like strconv.AppendInt. It never retains
// dst or writes past the bytes it appends, so a caller that evaluates many
// inputs can reuse one buffer (AppendEval(buf[:0], x)) and pay no allocation
// per evaluation; concurrent calls are safe as long as each passes its own
// dst. A caller that keeps f(x) past its next call on the same buffer must
// copy it.
type Function interface {
	// Name identifies the workload (registry key, report label).
	Name() string
	// AppendEval appends f(x) to dst and returns the extended slice.
	AppendEval(dst []byte, x uint64) []byte
	// AppendEvalBatch appends f(x0), f(x0+1), …, f(x0+k-1) for
	// k = len(ends) to dst, in that order and under AppendEval's contract,
	// and sets ends[i] to the offset in the returned slice where f(x0+i)
	// ends. The workloads whose f is hashing evaluate the batch in
	// shortsha.Batch calls of shortsha.Lanes inputs, hashed side by side in
	// the kernel's lanes; the others make k AppendEval calls.
	AppendEvalBatch(dst []byte, x0 uint64, ends []int) []byte
	// Eval computes f(x) into a fresh slice: the allocating convenience,
	// always AppendEval(nil, x).
	Eval(x uint64) []byte
	// GuessOutput fabricates a stand-in for f(x) at negligible cost — the
	// cheater's f̌ of Section 2.2. It must draw from the same output format
	// as AppendEval so that a guess is indistinguishable except by value.
	GuessOutput(x uint64, rng *rand.Rand) []byte
	// GuessProb reports q = Pr[GuessOutput(x) == f(x)], the guessing
	// probability of Theorem 3.
	GuessProb() float64
	// Screener returns the workload's canonical screener S (Section 2.1),
	// selecting the outputs reported to the supervisor.
	Screener() Screener
}

// OutputVerifier is implemented by functions whose outputs can be checked
// far more cheaply than recomputed — the paper's factoring remark in
// Section 3.1, Step 4. VerifyOutput must accept exactly the outputs Eval
// produces.
type OutputVerifier interface {
	VerifyOutput(x uint64, output []byte) bool
}

// Screener is the program S of Section 2.1: it inspects a pair (x, f(x))
// and reports the string s for "valuable" outputs. Its runtime must be
// negligible next to Eval.
type Screener interface {
	// Screen returns the report string and whether the output is of
	// interest to the supervisor.
	Screen(x uint64, output []byte) (string, bool)
}

// ScreenerFunc adapts a function to the Screener interface.
type ScreenerFunc func(x uint64, output []byte) (string, bool)

// Screen implements Screener.
func (f ScreenerFunc) Screen(x uint64, output []byte) (string, bool) { return f(x, output) }

// Counter wraps a Function and counts evaluations. The experiments use it to
// measure participant effort (honest work, cheat savings, §3.3 rebuild cost,
// §4.2 attack cost). The tally is a plain field: a Counter belongs to one
// task, whose evaluations are made from one goroutine, and is not safe for
// concurrent use.
type Counter struct {
	inner Function
	evals int64
}

var _ Function = (*Counter)(nil)

// Count wraps f with an evaluation counter. The Counter is not safe for
// concurrent use: a leaf function handed to a parallel tree build
// (merkle.WithParallelism) must not evaluate through it.
func Count(f Function) *Counter {
	return &Counter{inner: f}
}

// Name implements Function.
func (c *Counter) Name() string { return c.inner.Name() }

// AppendEval implements Function, incrementing the counter.
//
//gridlint:credit the Counter wrapper exists to count evaluations
func (c *Counter) AppendEval(dst []byte, x uint64) []byte {
	c.evals++
	return c.inner.AppendEval(dst, x)
}

// AppendEvalBatch implements Function, counting len(ends) evaluations.
//
//gridlint:credit the Counter wrapper exists to count evaluations
func (c *Counter) AppendEvalBatch(dst []byte, x0 uint64, ends []int) []byte {
	c.evals += int64(len(ends))
	return c.inner.AppendEvalBatch(dst, x0, ends)
}

// Eval implements Function; it counts once, through AppendEval.
func (c *Counter) Eval(x uint64) []byte { return c.AppendEval(nil, x) }

// GuessOutput implements Function. Guesses are free: no count.
func (c *Counter) GuessOutput(x uint64, rng *rand.Rand) []byte {
	return c.inner.GuessOutput(x, rng)
}

// GuessProb implements Function.
func (c *Counter) GuessProb() float64 { return c.inner.GuessProb() }

// Screener implements Function; screening is not counted as evaluation.
func (c *Counter) Screener() Screener { return c.inner.Screener() }

// Evals reports the number of evaluations since construction or Reset.
func (c *Counter) Evals() int64 { return c.evals }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.evals = 0 }

// Unwrap returns the underlying Function.
func (c *Counter) Unwrap() Function { return c.inner }

// AsOutputVerifier reports whether f (unwrapping counters) supports cheap
// output verification, returning the verifier when it does.
func AsOutputVerifier(f Function) (OutputVerifier, bool) {
	for {
		if v, ok := f.(OutputVerifier); ok {
			return v, true
		}
		c, ok := f.(*Counter)
		if !ok {
			return nil, false
		}
		f = c.Unwrap()
	}
}

// appendEvalEach is AppendEvalBatch as one AppendEval call per input, for
// the functions whose evaluations share nothing.
func appendEvalEach(f Function, dst []byte, x0 uint64, ends []int) []byte {
	for i := range ends {
		dst = f.AppendEval(dst, x0+uint64(i))
		ends[i] = len(dst)
	}
	return dst
}

// Builder constructs a workload from a seed, letting command-line tools and
// experiments instantiate workloads by name.
type Builder func(seed uint64) Function

// registry maps workload names to builders. Populated at package
// initialization with the standard workloads; immutable afterwards.
var registry = map[string]Builder{
	"password":   func(seed uint64) Function { return NewPassword(seed, 20) },
	"drugscreen": func(seed uint64) Function { return NewDrugScreen(seed) },
	"signal":     func(seed uint64) Function { return NewSignal(seed, 64) },
	"mersenne":   func(seed uint64) Function { return NewMersenne(seed) },
	"factor":     func(seed uint64) Function { return NewFactor(seed) },
	"synthetic":  func(seed uint64) Function { return NewSynthetic(seed, 4, 64) },
}

// New instantiates a registered workload by name.
func New(name string, seed uint64) (Function, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownFunction, name, Names())
	}
	return b(seed), nil
}

// Names lists the registered workload names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
