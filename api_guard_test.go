package dscweaver_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions and methods under internal/
// that may stand without a caller in production code, each with its
// reason. A bare name ("String") covers that method on every type; a
// qualified one ("leak.Check", or "pkg.Type.Method") covers one
// declaration. An entry that names no declaration fails the test too.
var apiAllowlist = map[string]string{
	// Methods the standard library calls through an interface.
	"String":      "fmt.Stringer, called by fmt",
	"Error":       "error, called by fmt and errors",
	"Unwrap":      "errors.Unwrap chain, called by errors.Is and errors.As",
	"MarshalJSON": "json.Marshaler, called by encoding/json",
	"RoundTrip":   "http.RoundTripper, called by net/http",
	"Write":       "io.Writer, called through the interface",
	"WriteHeader": "http.ResponseWriter, called by net/http",
	"Len":         "sort.Interface, called by sort",

	// Test helpers shared across packages: a _test.go file cannot be
	// imported by another package's tests.
	"leak.Check":                "goroutine-leak check at test teardown for the chaos, schedule, server and services tests",
	"core.ConstraintSet.Before": "one-line F(a) → S(b) constraint for hand-built sets in the tests of nine packages",
	"core.Measure":              "critical path and width; integration's TestEveryBackEndAcceptsTheMinimalSet checks the makespan estimator against it",
	"core.TransitiveClosure":    "Definition 3's annotated closure; purchasing's TestConditionAnnotatedClosureOfRecClientPo and TestClosureAnnotationsAfterMinimize check the paper's annotations through it",
	"pdg.SequencingConstraints": "Figure 2's construct baseline; sim's TestCompareMinimalVsConstructBaseline estimates it against the minimal set",
	"workload.Fan":              "one source, n workers, one sink; sim's TestEstimateFanIsMax and schedule's TestSchedulerRealizesAntichainWidth run it",

	// Left for the benchmark change that reworks perfbench's use of the
	// note transport (ROADMAP item 3).
	"services.HTTPTransport.Retries": "retried-send count the transport tests assert on; transport_retries_total carries it in production",
}

// TestInternalAPIHasProductionCallers fails on an exported function or
// method under internal/ that no non-test file of internal/, cmd/,
// examples/ or perfbench/ refers to. Production code is what production
// runs: an API only tests call is deleted, or moved into the test files
// of its package when a test needs it as a helper or an oracle.
//
// The match is by name, from the syntax alone: a package-level function
// is used when its package names it or another package selects it
// through an import; a method is used when any selector in production
// code has its name. The check can miss a dead method whose name another
// type shares, but it never flags a declaration that live code names.
func TestInternalAPIHasProductionCallers(t *testing.T) {
	type decl struct {
		key, name string // key is "pkg.Name" or "pkg.Recv.Name"
		use       string // what a reference to it looks like
		method    bool
		pos       token.Position
	}
	var (
		fset  = token.NewFileSet()
		decls []decl
		// refs maps a use ("fn:importpath.Name" or "sel:Name") to the
		// declarations that make it; -1 stands for code that is always
		// live (package-level vars and types, unexported functions, and
		// everything outside internal/).
		refs = map[string][]int{}
	)
	for _, root := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := "dscweaver/" + filepath.ToSlash(filepath.Dir(path))
			imports := map[string]string{}
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				name := p[strings.LastIndex(p, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = p
			}
			for _, dl := range f.Decls {
				from := -1
				var nodes []ast.Node
				if fd, ok := dl.(*ast.FuncDecl); !ok {
					nodes = append(nodes, dl)
				} else {
					if root == "internal" && fd.Name.IsExported() {
						from = len(decls)
						short := pkg[strings.LastIndex(pkg, "/")+1:]
						d := decl{key: short + "." + fd.Name.Name, name: fd.Name.Name, use: "fn:" + pkg + "." + fd.Name.Name, pos: fset.Position(fd.Pos())}
						if fd.Recv != nil {
							d.key, d.use, d.method = short+"."+recvName(fd)+"."+fd.Name.Name, "sel:"+fd.Name.Name, true
						}
						decls = append(decls, d)
					}
					// Everything but the declared name itself.
					nodes = append(nodes, fd.Type)
					if fd.Recv != nil {
						nodes = append(nodes, fd.Recv)
					}
					if fd.Body != nil {
						nodes = append(nodes, fd.Body)
					}
				}
				for _, n := range nodes {
					ast.Inspect(n, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.SelectorExpr:
							refs["sel:"+n.Sel.Name] = append(refs["sel:"+n.Sel.Name], from)
							if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
								u := "fn:" + imports[x.Name] + "." + n.Sel.Name
								refs[u] = append(refs[u], from)
								return false
							}
						case *ast.Ident:
							u := "fn:" + pkg + "." + n.Name
							refs[u] = append(refs[u], from)
						}
						return true
					})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// A declaration is dead when every reference to it comes from itself
	// or from dead declarations; iterate until no more die, so a helper
	// only a dead function calls is found in the same run.
	allowed := func(d decl) string {
		if _, ok := apiAllowlist[d.key]; ok {
			return d.key
		}
		if _, ok := apiAllowlist[d.name]; ok && d.method {
			return d.name
		}
		return ""
	}
	dead := make([]bool, len(decls))
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if dead[i] || allowed(d) != "" {
				continue
			}
			live := false
			for _, from := range refs[d.use] {
				if from == -1 || (from != i && !dead[from]) {
					live = true
					break
				}
			}
			if !live {
				dead[i], changed = true, true
			}
		}
	}
	var report []string
	needed := map[string]bool{}
	for i, d := range decls {
		if a := allowed(d); a != "" {
			needed[a] = true
		}
		if dead[i] {
			report = append(report, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(report)
	for _, s := range report {
		t.Errorf("%s has no caller outside test files: delete it, or move it into a _test.go file of its package", s)
	}
	for name, reason := range apiAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %q has no reason", name)
		}
		if !needed[name] {
			t.Errorf("allowlist entry %q names no declaration under internal/", name)
		}
	}
}

// recvName is the receiver's type name without pointer or type
// parameters.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	x := fd.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
