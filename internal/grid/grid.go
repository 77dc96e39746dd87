// Package grid simulates the grid-computing environment of Section 2.1 of
// "Uncheatable Grid Computing" (Du et al., ICDCS 2004): a supervisor that
// partitions the input domain X into tasks, participants that evaluate f and
// screen results, and the verification schemes — CBS, non-interactive CBS,
// and the baselines — wired over a byte-accounted message transport.
//
// The package also provides the GRACE-style broker of Section 4 (a relay
// between supervisor and participants that precludes interactive
// challenges) and a simulation engine that runs mixed honest/cheating
// populations and reports detection and communication metrics.
package grid

import (
	"errors"
	"fmt"
)

// Errors reported by this package.
var (
	// ErrBadConfig is returned for invalid configuration.
	ErrBadConfig = errors.New("grid: invalid configuration")
	// ErrUnexpectedMessage indicates a protocol message arrived out of
	// order or with an unknown type.
	ErrUnexpectedMessage = errors.New("grid: unexpected message")
	// ErrBadPayload indicates an undecodable message payload.
	ErrBadPayload = errors.New("grid: malformed payload")
	// ErrFrameCorrupt indicates a session frame failed its integrity check —
	// link damage rather than peer misbehavior. Sessions treat it like any
	// other transport fault: quarantine the connection and resume elsewhere.
	ErrFrameCorrupt = errors.New("grid: frame failed integrity check")
	// ErrConnQuarantined wraps the transport fault that killed a session
	// connection; tasks failing with it hold resumable state and can
	// re-attach to a replacement connection.
	ErrConnQuarantined = errors.New("grid: connection quarantined")
	// ErrTaskTooLarge is returned when a task exceeds the in-memory
	// simulation bound.
	ErrTaskTooLarge = errors.New("grid: task domain too large")
)

// SchemeKind enumerates the verification schemes.
type SchemeKind uint8

// The verification schemes compared by the experiments.
const (
	// SchemeCBS is the interactive Commitment-Based Sampling scheme
	// (Section 3.1) — the paper's contribution.
	SchemeCBS SchemeKind = iota + 1
	// SchemeNICBS is the non-interactive variant (Section 4.1).
	SchemeNICBS
	// SchemeNaive is naive sampling over a full result upload (Section 1).
	SchemeNaive
	// SchemeDoubleCheck is k-way redundant assignment (Section 1).
	SchemeDoubleCheck
	// SchemeRinger is the Golle-Mironov ringer scheme (Section 1.1).
	SchemeRinger
)

// String implements fmt.Stringer.
func (k SchemeKind) String() string {
	switch k {
	case SchemeCBS:
		return "cbs"
	case SchemeNICBS:
		return "ni-cbs"
	case SchemeNaive:
		return "naive"
	case SchemeDoubleCheck:
		return "double-check"
	case SchemeRinger:
		return "ringer"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(k))
	}
}

// ParseScheme maps a scheme name (as printed by String) to its kind.
func ParseScheme(name string) (SchemeKind, error) {
	for _, k := range []SchemeKind{SchemeCBS, SchemeNICBS, SchemeNaive, SchemeDoubleCheck, SchemeRinger} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown scheme %q", ErrBadConfig, name)
}

// SchemeSpec parameterizes a verification scheme for one task assignment.
// The supervisor embeds it in the assignment so the participant knows which
// protocol to speak.
type SchemeSpec struct {
	// Kind selects the scheme.
	Kind SchemeKind
	// M is the sample count (CBS/NI-CBS/naive) or planted-ringer count.
	M int
	// ChainIters is the per-step base-hash count of g for NI-CBS (the
	// Eq. 5 cost dial); ignored elsewhere. Minimum 1.
	ChainIters int
	// SubtreeHeight enables the Section 3.3 storage-bounded prover when
	// positive (CBS/NI-CBS only).
	SubtreeHeight int
	// WindowTasks, when positive, enables rolling window commitments on a
	// long-horizon stream: every WindowTasks settled tasks the participant
	// commits a Merkle root over the window's per-task stream digests and
	// answers the hash-chain-derived challenge for it.
	WindowTasks int
	// WindowSamples is the per-window sample count m of the rolling
	// commitment challenge. Required (>= 1) when WindowTasks > 0.
	WindowSamples int
}

// validate checks the spec ahead of a run.
func (s SchemeSpec) validate() error {
	switch s.Kind {
	case SchemeCBS, SchemeNICBS, SchemeNaive, SchemeDoubleCheck, SchemeRinger:
	default:
		return fmt.Errorf("%w: unknown scheme kind %d", ErrBadConfig, s.Kind)
	}
	if s.M < 1 {
		return fmt.Errorf("%w: sample count %d", ErrBadConfig, s.M)
	}
	if s.Kind == SchemeNICBS && s.ChainIters < 1 {
		return fmt.Errorf("%w: NI-CBS needs ChainIters >= 1, got %d", ErrBadConfig, s.ChainIters)
	}
	if s.SubtreeHeight < 0 {
		return fmt.Errorf("%w: negative subtree height", ErrBadConfig)
	}
	if s.WindowTasks < 0 || s.WindowTasks > maxWindowCommitTasks {
		return fmt.Errorf("%w: window of %d tasks (max %d)", ErrBadConfig, s.WindowTasks, maxWindowCommitTasks)
	}
	if s.WindowTasks > 0 {
		if s.WindowSamples < 1 || s.WindowSamples > s.WindowTasks {
			return fmt.Errorf("%w: %d window samples for a %d-task window",
				ErrBadConfig, s.WindowSamples, s.WindowTasks)
		}
		if s.WindowSamples > maxWindowSamples {
			return fmt.Errorf("%w: %d window samples (max %d)", ErrBadConfig, s.WindowSamples, maxWindowSamples)
		}
	} else if s.WindowSamples != 0 {
		return fmt.Errorf("%w: window samples without a window", ErrBadConfig)
	}
	return nil
}

// Task is one unit of assigned work: evaluate f on the absolute inputs
// [Start, Start+N).
type Task struct {
	// ID identifies the task in reports.
	ID uint64
	// Start is the first absolute input of the window.
	Start uint64
	// N is the window length |D|.
	N uint64
	// Workload names the registered function f.
	Workload string
	// Seed instantiates the workload.
	Seed uint64
}

// maxTaskSize bounds in-memory simulation tasks.
const maxTaskSize = 1 << 26

func (t Task) validate() error {
	if t.N < 1 {
		return fmt.Errorf("%w: empty task domain", ErrBadConfig)
	}
	if t.N > maxTaskSize {
		return fmt.Errorf("%w: %d inputs (max %d)", ErrTaskTooLarge, t.N, maxTaskSize)
	}
	if t.Workload == "" {
		return fmt.Errorf("%w: task without workload", ErrBadConfig)
	}
	return nil
}

// Report is one screened result: the string s = S(x, f(x)) the participant
// sends for a "valuable" output.
type Report struct {
	// X is the absolute input.
	X uint64
	// S is the screener string.
	S string
}

// Verdict is the supervisor's final ruling on a task execution.
type Verdict struct {
	// Accepted is true when verification passed.
	Accepted bool
	// Reason explains a rejection; empty when accepted.
	Reason string
}
