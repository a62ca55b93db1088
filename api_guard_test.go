package dscweaver_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions and methods under internal/
// that may stand without a caller in production code, each with its
// reason: "leak.Check" names a function, "pkg.Type.Method" a method.
// An entry that names no declaration fails the test too.
var apiAllowlist = map[string]string{
	// Test helpers shared across packages: a _test.go file cannot be
	// imported by another package's tests.
	"leak.Check":                "goroutine-leak check at test teardown for the chaos, schedule, server and services tests",
	"core.ConstraintSet.Before": "one-line F(a) → S(b) constraint for hand-built sets in the tests of nine packages",
	"core.Measure":              "critical path and width; integration's TestEveryBackEndAcceptsTheMinimalSet checks the makespan estimator against it",
	"core.TransitiveClosure":    "Definition 3's annotated closure; purchasing's TestConditionAnnotatedClosureOfRecClientPo and TestClosureAnnotationsAfterMinimize check the paper's annotations through it",
	"pdg.SequencingConstraints": "Figure 2's construct baseline; sim's TestCompareMinimalVsConstructBaseline estimates it against the minimal set",
	"workload.Fan":              "one source, n workers, one sink; sim's TestEstimateFanIsMax and schedule's TestSchedulerRealizesAntichainWidth run it",
}

// stdlibCalls declares the interfaces through which the standard
// library calls methods that production code need not name. Each of
// their methods counts as called from live code, so a method is live
// when its receiver type implements one of these interfaces.
const stdlibCalls = `package stdlib

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	stringer       fmt.Stringer                  // fmt
	failure        error                         // fmt and errors
	unwrapper      interface{ Unwrap() error }   // errors.Is and errors.As
	multiUnwrapper interface{ Unwrap() []error } // errors.Is and errors.As
	marshaler      json.Marshaler                // encoding/json
	roundTripper   http.RoundTripper             // net/http
	responseWriter http.ResponseWriter           // net/http
	writer         io.Writer                     // io, bufio and fmt
	sorter         sort.Interface                // sort
)
`

// TestInternalAPIHasProductionCallers fails on an exported function or
// method under internal/ that no non-test file of internal/, cmd/,
// examples/ or perfbench/ refers to. Production code is what production
// runs: an API only tests call is deleted, or moved into the test files
// of its package when a test needs it as a helper or an oracle.
//
// The match is by object, from the type-checked source (go/types, with
// the standard library imported from source): a reference is an
// identifier that resolves to the declaration itself, so a method is
// used only when a selector of its own receiver type names it, and two
// types' methods that share a name are told apart. A call through an
// interface method reaches every method of that name whose receiver
// type implements the interface, and so does a call the standard
// library makes through one of the interfaces in stdlibCalls.
func TestInternalAPIHasProductionCallers(t *testing.T) {
	type decl struct {
		key string      // "pkg.Name" or "pkg.Recv.Name"
		fn  *types.Func // the declared object
		pos token.Position
	}
	var (
		l     = newAPILoader()
		decls []decl
		// refs maps a function or concrete method to the declarations
		// that refer to it, and ifaces does the same for the interface
		// methods production code calls; -1 stands for code that is
		// always live (package-level vars and types, unexported
		// functions, everything outside internal/ and the standard
		// library).
		refs   = map[*types.Func][]int{}
		ifaces = map[*types.Func][]int{}
	)
	f, err := parser.ParseFile(l.fset, "stdlib_calls.go", stdlibCalls, 0)
	if err != nil {
		t.Fatal(err)
	}
	std, err := l.check("stdlib", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range std.pkg.Scope().Names() {
		in := std.pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for i := 0; i < in.NumMethods(); i++ {
			ifaces[in.Method(i)] = []int{-1}
		}
	}
	for _, root := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			p, err := l.load(path)
			if p == nil {
				return err
			}
			for _, f := range p.files {
				for _, dl := range f.Decls {
					from := -1
					if fd, ok := dl.(*ast.FuncDecl); ok && root == "internal" && fd.Name.IsExported() {
						from = len(decls)
						fn := p.info.Defs[fd.Name].(*types.Func)
						key := p.pkg.Name() + "." + fd.Name.Name
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							key = p.pkg.Name() + "." + recvName(recv.Type()) + "." + fd.Name.Name
						}
						decls = append(decls, decl{key: key, fn: fn, pos: l.fset.Position(fd.Pos())})
					}
					ast.Inspect(dl, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						if fn, ok := p.info.Uses[id].(*types.Func); ok {
							fn = fn.Origin()
							if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
								ifaces[fn] = append(ifaces[fn], from)
							} else {
								refs[fn] = append(refs[fn], from)
							}
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
	// A method is also reached by every call of an interface method of
	// its name that its receiver type (or a pointer to it) implements.
	for _, d := range decls {
		recv := d.fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		named := recv.Type()
		if ptr, ok := named.(*types.Pointer); ok {
			named = ptr.Elem()
		}
		for im, from := range ifaces {
			if im.Name() != d.fn.Name() {
				continue
			}
			in := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(named, in) || types.Implements(types.NewPointer(named), in) {
				refs[d.fn] = append(refs[d.fn], from...)
			}
		}
	}

	// A declaration is dead when every reference to it comes from itself
	// or from dead declarations; iterate until no more die, so a helper
	// only a dead function calls is found in the same run.
	dead := make([]bool, len(decls))
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if _, ok := apiAllowlist[d.key]; dead[i] || ok {
				continue
			}
			live := false
			for _, from := range refs[d.fn] {
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
		needed[d.key] = true
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

// recvName is a receiver type's name without pointer or type
// arguments.
func recvName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}

// apiPackage is one type-checked package: its non-test files, with the
// objects their identifiers resolve to.
type apiPackage struct {
	dir   string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// apiLoader type-checks this module's packages (perfbench's module
// included) from their directories, each once, and imports the
// standard library from source, so every reference to a declaration
// resolves to the one object the declaring package made.
type apiLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*apiPackage // by directory; nil while being checked
}

func newAPILoader() *apiLoader {
	fset := token.NewFileSet()
	return &apiLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*apiPackage{}}
}

// Import resolves an import path: the module's own packages load from
// their directory ("dscweaver/perfbench" is perfbench/).
func (l *apiLoader) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "dscweaver/")
	if !ok {
		return l.std.Import(path)
	}
	p, err := l.load(filepath.FromSlash(dir))
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%s: no Go files", path)
	}
	return p.pkg, nil
}

// load type-checks the package in dir; a directory without non-test Go
// files gives nil.
func (l *apiLoader) load(dir string) (*apiPackage, error) {
	if p, ok := l.pkgs[dir]; ok {
		if p == nil {
			return nil, fmt.Errorf("%s: import cycle", dir)
		}
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	l.pkgs[dir] = nil
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := l.check("dscweaver/"+filepath.ToSlash(dir), files)
	if err != nil {
		return nil, err
	}
	p.dir = dir
	l.pkgs[dir] = p
	return p, nil
}

// check type-checks one package's files, recording the object each
// identifier defines or uses.
func (l *apiLoader) check(path string, files []*ast.File) (*apiPackage, error) {
	p := &apiPackage{files: files, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	conf := types.Config{Importer: l}
	var err error
	p.pkg, err = conf.Check(path, l.fset, files, p.info)
	return p, err
}
