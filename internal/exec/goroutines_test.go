package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The executor starts goroutines in exactly one place: launch, which starts
// a stage's DOP workers. Every finish runs on the stage's last worker,
// inside its slot, and context cancellation reaches the run through
// context.AfterFunc. A new `go` statement anywhere in the package's non-test
// files fails this test, so a fan-out has to be added here, in the open,
// with its reason.
func TestGoStatementSites(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	got := map[string]int{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					got[fn.Name.Name]++
					t.Logf("go statement in %s at %s", fn.Name.Name, fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
	want := map[string]int{"launch": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("go statements by enclosing function: %v, want %v", got, want)
	}
}
