package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzRun is one fuzz command of the Makefile or the CI workflow: the
// target it names and the package directory it runs in.
type fuzzRun struct {
	file, name, dir string
	runsTests       bool // no -run '^$': the package's unit tests run again first
}

var (
	fuzzFlag   = regexp.MustCompile(`-fuzz[= ](\w+)`)
	fuzzPkg    = regexp.MustCompile(`\s\./([\w/]+?)/?(?:\s|$)`)
	fuzzNoTest = regexp.MustCompile(`-run '\^\$\$?'`)
)

// fuzzRuns returns every `-fuzz=Name … ./pkg/` command line of path.
func fuzzRuns(t *testing.T, path string) []fuzzRun {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var runs []fuzzRun
	for _, line := range strings.Split(string(raw), "\n") {
		name := fuzzFlag.FindStringSubmatch(line)
		if name == nil {
			continue
		}
		pkg := fuzzPkg.FindStringSubmatch(line)
		if pkg == nil {
			t.Errorf("%s: fuzz command names no package: %s", path, strings.TrimSpace(line))
			continue
		}
		runs = append(runs, fuzzRun{file: path, name: name[1], dir: filepath.FromSlash(pkg[1]),
			runsTests: !fuzzNoTest.MatchString(line)})
	}
	return runs
}

// fuzzTargets returns the fuzz targets, func FuzzX(*testing.F), that the
// test files of the module define, keyed "dir FuzzX". The bench module is
// its own module and is left out.
func fuzzTargets(t *testing.T) map[string]bool {
	t.Helper()
	targets := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && isFuzzTarget(fn) {
				targets[filepath.Dir(path)+" "+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// isFuzzTarget reports whether fn is func FuzzX(*testing.F).
func isFuzzTarget(fn *ast.FuncDecl) bool {
	params := fn.Type.Params.List
	if !strings.HasPrefix(fn.Name.Name, "Fuzz") || len(params) != 1 || len(params[0].Names) > 1 {
		return false
	}
	star, ok := params[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}

// TestFuzzListsNameRealTargets holds `make fuzz` and the CI fuzz steps to
// the fuzz targets that exist: a named target must be defined in the
// package the command runs, every target must have a `make fuzz` line, and
// every fuzz line skips the unit tests with -run '^$'.
func TestFuzzListsNameRealTargets(t *testing.T) {
	targets := fuzzTargets(t)
	if len(targets) == 0 {
		t.Fatal("no fuzz targets found")
	}
	inMake := map[string]bool{}
	for _, path := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		for _, r := range fuzzRuns(t, path) {
			key := r.dir + " " + r.name
			if !targets[key] {
				t.Errorf("%s: -fuzz=%s names no func %s(*testing.F) in ./%s", r.file, r.name, r.name, r.dir)
			}
			if r.runsTests {
				t.Errorf("%s: -fuzz=%s lacks -run '^$' and reruns the unit tests of ./%s", r.file, r.name, r.dir)
			}
			if path == "Makefile" {
				inMake[key] = true
			}
		}
	}
	for _, key := range sorted(targets) {
		if !inMake[key] {
			dir, name, _ := strings.Cut(key, " ")
			t.Errorf("fuzz target %s of ./%s has no line in `make fuzz`", name, dir)
		}
	}
}
