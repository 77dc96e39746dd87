// Package lint is gridlint: a suite of project-specific static analyzers
// that mechanically enforce the wire, locking, and accounting invariants
// this codebase otherwise relies on review and stress runs to hold.
//
// The paper's guarantee — cheat detection with probability driven by the
// sample rate q — only holds if the implementation invariants hold: every
// wire message is decodable under fuzz and handled exhaustively, byte
// accounting reconciles exactly with connection counters, and the
// session/replica/broker concurrency never blocks while holding a lock.
// Each analyzer guards one of those invariants:
//
//   - wireexhaustive: every msgXxx wire constant is dispatched somewhere,
//     appears in the wire decoder manifest, and every payload decoder has a
//     FuzzDecode* target registered in CI.
//   - chansendunderlock: no channel send, WaitGroup wait, or blocking
//     transport I/O while a sync.Mutex/RWMutex acquired in the same
//     function is still held (the PR 4 rendezvous-deadlock shape).
//   - counterdiscipline: byte/frame/message accounting fields are only
//     mutated inside functions annotated //gridlint:credit, so flush-time
//     crediting cannot silently regress to enqueue-time.
//   - errclassify: exported functions that perform transport I/O classify
//     transport errors (quarantine vs. resume vs. fatal) instead of
//     returning them raw.
//   - shortsha: non-test code outside internal/shortsha does not name
//     crypto/sha256.Sum256 or sha256.New, so every SHA-256 the protocol
//     takes runs on the one short-message kernel.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library alone — go/parser,
// go/types, and a `go list` package loader — so the tree stays free of
// external dependencies.
//
// Suppression: a comment of the form
//
//	//gridlint:ignore <analyzer> <reason>
//
// on the flagged line, or alone on the line above it, suppresses that
// analyzer's diagnostics for the line. The reason is mandatory by
// convention: an ignore without a why does not survive review.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check, the stdlib-only analogue of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Run inspects one package and reports findings via Pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the pass.
	Fset *token.FileSet
	// Path is the package's import path.
	Path string
	// Pkg is the type-checked package. It may be partially checked when an
	// import could not be resolved; analyzers must tolerate missing type
	// information.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// Files are the package's non-test files, type-checked.
	Files []*ast.File
	// TestFiles are the package's _test.go files, parsed but not
	// type-checked. wireexhaustive reads fuzz target declarations here.
	TestFiles []*ast.File
	// Config carries driver-supplied inputs keyed by name (for example the
	// CI workflow text under "ci-workflow").
	Config map[string]string

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the check that fired.
	Analyzer string
	// Pos is the finding's location.
	Pos token.Pos
	// Position is Pos resolved through the pass's FileSet.
	Position token.Position
	// Message states the violated invariant.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when the checker could not resolve
// it.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.TypeOf(e)
}

// Analyzers returns the full gridlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WireExhaustive,
		ChanSendUnderLock,
		CounterDiscipline,
		ErrClassify,
		ShortSHA,
	}
}

// sortDiagnostics orders findings by file, line, column, then analyzer so
// output is deterministic.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
