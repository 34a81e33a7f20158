// Package repro's surface guard: every command-line flag and every
// exported name of the eppi facade must have a row in DESIGN.md §8 that
// names its caller, and every row must name something that exists.
package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the flag.FlagSet methods that register a flag; the
// flag's name is the first string literal among their arguments.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true,
	"Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true,
	"Func": true, "TextVar": true, "Var": true,
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"String": true, "StringVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
}

// surfaceTables returns the caller tables of DESIGN.md §8, keyed by the
// subject of their header ("eppi-serve" for "| `eppi-serve` flag |",
// "eppi" for "| `eppi` name |"), each holding the backquoted names of
// its rows' first cells.
func surfaceTables(t *testing.T) map[string]map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 8.")
	end := strings.Index(doc, "\n## 9.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §8")
	}
	header := regexp.MustCompile("^\\| `([a-z-]+)` (?:flag|name) \\| Caller \\|$")
	quoted := regexp.MustCompile("`([^`]+)`")
	tables := map[string]map[string]bool{}
	var cur map[string]bool
	for _, line := range strings.Split(doc[start:end], "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			cur = map[string]bool{}
			tables[m[1]] = cur
			continue
		}
		if cur == nil || !strings.HasPrefix(line, "|") {
			cur = nil
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.HasPrefix(cells[1], "---") {
			continue
		}
		for _, m := range quoted.FindAllStringSubmatch(cells[1], -1) {
			cur[m[1]] = true
		}
	}
	return tables
}

// commandFlags returns the flags main.go of one command registers.
func commandFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagDefiners[sel.Sel.Name] {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "fs" && recv.Name != "flag") {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				flags["-"+name] = true
				break
			}
		}
		return true
	})
	return flags
}

// facadeNames returns the exported names of package eppi: top-level
// identifiers, and methods of exported types as "Type.Method".
func facadeNames(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join("eppi", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					names[id.Name+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								names[id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}

// checkSurface fails for every name of have without a row in rows, and
// for every row naming something have lacks.
func checkSurface(t *testing.T, subject string, have, rows map[string]bool) {
	t.Helper()
	if rows == nil {
		t.Errorf("DESIGN.md §8 has no caller table for %s", subject)
		return
	}
	for _, name := range sorted(have) {
		if !rows[name] {
			t.Errorf("%s: %s has no row in DESIGN.md §8 naming its caller", subject, name)
		}
	}
	for _, name := range sorted(rows) {
		if !have[name] {
			t.Errorf("%s: DESIGN.md §8 has a row for %s, which does not exist", subject, name)
		}
	}
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestSurfaceNamesItsCaller holds the commands and the facade to the
// rule of DESIGN.md §8: a flag or exported name stays only while a row
// there names its caller outside the tests, its deployment role, or the
// test that uses it as a reference or a seam.
func TestSurfaceNamesItsCaller(t *testing.T) {
	tables := surfaceTables(t)
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no cmd/*/main.go found")
	}
	for _, path := range mains {
		command := filepath.Base(filepath.Dir(path))
		checkSurface(t, command, commandFlags(t, path), tables[command])
	}
	checkSurface(t, "eppi", facadeNames(t), tables["eppi"])
}
