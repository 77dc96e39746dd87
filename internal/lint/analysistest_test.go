package lint

// A miniature analysistest: fixtures under testdata/<analyzer>/{bad,good}
// are standalone packages annotated with
//
//	// want "substr" ["substr" ...]
//
// comments. Each diagnostic an analyzer reports must match (by substring) a
// want on its line, and every want must be matched by a diagnostic — so the
// fixtures pin both the positives and the silences. _test.go files in a
// fixture are parsed but not type-checked, mirroring the real loader.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var wantRx = regexp.MustCompile(`//\s*want\s+(.*)`)
var wantStrRx = regexp.MustCompile(`"([^"]*)"`)

// fixtureWant is one expectation at a file:line.
type fixtureWant struct {
	file    string
	line    int
	substr  string
	matched bool
}

// runFixture loads one fixture directory, runs the analyzer, applies
// //gridlint:ignore suppression, and reconciles diagnostics against want
// comments.
func runFixture(t *testing.T, a *Analyzer, dir string, config map[string]string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture %s: no files (%v)", dir, err)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	var files, testFiles []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		if strings.HasSuffix(name, "_test.go") {
			testFiles = append(testFiles, f)
		} else {
			files = append(files, f)
		}
	}

	info := newTypesInfo()
	conf := types.Config{
		Importer: importer.ForCompiler(token.NewFileSet(), "source", nil),
		Error:    func(error) {},
	}
	pkg, err := conf.Check("fixture/"+filepath.Base(dir), fset, files, info)
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", dir, err)
	}

	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Path:      "fixture/" + filepath.Base(dir),
		Pkg:       pkg,
		TypesInfo: info,
		Files:     files,
		TestFiles: testFiles,
		Config:    config,
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, dir, err)
	}

	ignores := collectIgnores(fset, append(append([]*ast.File(nil), files...), testFiles...))
	var diags []Diagnostic
	for _, d := range pass.diags {
		if !ignores.suppressed(d) {
			diags = append(diags, d)
		}
	}
	sortDiagnostics(diags)

	wants := collectWants(t, names)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Position.Filename && w.line == d.Position.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
}

// collectWants scans fixture sources for want comments.
func collectWants(t *testing.T, names []string) []*fixtureWant {
	t.Helper()
	var out []*fixtureWant
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRx.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, s := range wantStrRx.FindAllStringSubmatch(m[1], -1) {
				out = append(out, &fixtureWant{file: name, line: i + 1, substr: s[1]})
			}
		}
	}
	return out
}

func TestWireExhaustiveFixtures(t *testing.T) {
	runFixture(t, WireExhaustive, filepath.Join("testdata", "wireexhaustive", "bad"),
		map[string]string{"ci-workflow": "go test -fuzz FuzzDecodeOther ./..."})
	runFixture(t, WireExhaustive, filepath.Join("testdata", "wireexhaustive", "good"),
		map[string]string{"ci-workflow": "go test -fuzz FuzzDecodePing -fuzz FuzzDecodeSettle ./..."})
}

func TestChanSendUnderLockFixtures(t *testing.T) {
	runFixture(t, ChanSendUnderLock, filepath.Join("testdata", "chansendunderlock", "bad"), nil)
	runFixture(t, ChanSendUnderLock, filepath.Join("testdata", "chansendunderlock", "good"), nil)
}

func TestCounterDisciplineFixtures(t *testing.T) {
	runFixture(t, CounterDiscipline, filepath.Join("testdata", "counterdiscipline", "bad"), nil)
	runFixture(t, CounterDiscipline, filepath.Join("testdata", "counterdiscipline", "good"), nil)
}

func TestErrClassifyFixtures(t *testing.T) {
	runFixture(t, ErrClassify, filepath.Join("testdata", "errclassify", "bad"), nil)
	runFixture(t, ErrClassify, filepath.Join("testdata", "errclassify", "good"), nil)
}

func TestShortSHAFixtures(t *testing.T) {
	runFixture(t, ShortSHA, filepath.Join("testdata", "shortsha", "bad"), nil)
	runFixture(t, ShortSHA, filepath.Join("testdata", "shortsha", "good"), nil)
}
