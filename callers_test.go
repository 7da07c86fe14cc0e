package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// callerAllowlist names the declarations under internal/ that may have
// no non-test caller, each with the reason it stays.
var callerAllowlist = map[string]string{
	"simtime.EventQueue.Scheduled": "TestEventCountPins reads the pushed-event count through it, as the planned events-pushed work counter will",
}

// listedPackage is the part of `go list -json` output the check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// goList returns the packages `go list -deps ./...` reports in dir, in
// dependency order.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declaration is one package-level name declared under internal/.
type declaration struct {
	obj      types.Object
	key      string    // package.Name or package.Type.Method
	from, to token.Pos // its own syntax: uses inside it do not count
}

// TestEveryDeclarationHasACaller type-checks the non-test files of this
// module and of perfbench/ (for the host's GOOS and GOARCH) and fails
// on every function, method, constant, variable or type declared under
// internal/ that no non-test code uses. A use inside the declaration
// itself, such as a recursive call, does not count. A method also
// counts as used when its type implements an interface the program
// calls that method through, or a standard-library interface that a
// standard-library function the program calls takes; String and Error
// always count.
func TestEveryDeclarationHasACaller(t *testing.T) {
	var pkgs []listedPackage
	inModule := map[string]bool{}
	for _, dir := range []string{".", "perfbench"} {
		for _, p := range goList(t, dir) {
			if !p.Standard && !inModule[p.ImportPath] && len(p.GoFiles) > 0 {
				inModule[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		if inModule[path] {
			return nil, fmt.Errorf("%s imported before it was checked", path)
		}
		return std.Import(path)
	})}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	var decls []declaration
	var named []*types.Named
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		if strings.HasPrefix(p.ImportPath, "repro/internal/") {
			decls = append(decls, declarations(tp, files, info)...)
		}
	}

	own := map[types.Object]declaration{}
	for _, d := range decls {
		own[d.obj] = d
	}
	// ifaceCalls maps each interface the program calls methods through,
	// or hands values to in a standard-library call, to the names of
	// the methods that count as called.
	ifaceCalls := map[*types.Interface]map[string]bool{}
	called := func(it *types.Interface, name string) {
		if ifaceCalls[it] == nil {
			ifaceCalls[it] = map[string]bool{}
		}
		ifaceCalls[it][name] = true
	}
	handedTo := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				called(it, it.Method(i).Name())
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if d, ok := own[obj]; ok && d.from <= id.Pos() && id.Pos() < d.to {
			continue
		}
		used[obj] = true
		fromStd := obj.Pkg() != nil && !inModule[obj.Pkg().Path()]
		switch obj := obj.(type) {
		case *types.TypeName:
			if fromStd {
				handedTo(obj.Type())
			}
		case *types.Func:
			sig := obj.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called(recv.Type().Underlying().(*types.Interface), obj.Name())
			}
			if fromStd {
				for i := 0; i < sig.Params().Len(); i++ {
					pt := sig.Params().At(i).Type()
					if s, ok := pt.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
						pt = s.Elem()
					}
					handedTo(pt)
				}
			}
		}
	}
	for it, names := range ifaceCalls {
		for _, n := range named {
			var recv types.Type = n
			if !types.Implements(recv, it) {
				if recv = types.NewPointer(n); !types.Implements(recv, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				if m := it.Method(i); names[m.Name()] {
					if obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name()); obj != nil {
						used[obj.(*types.Func).Origin()] = true
					}
				}
			}
		}
	}

	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		_, isFunc := d.obj.(*types.Func)
		if used[d.obj] || isFunc && (d.obj.Name() == "String" || d.obj.Name() == "Error") {
			continue
		}
		if _, ok := callerAllowlist[d.key]; ok {
			continue
		}
		pos := fset.Position(d.obj.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		t.Errorf("%s:%d: %s has no non-test caller", pos.Filename, pos.Line, d.key)
	}
	for key := range callerAllowlist {
		if !declared[key] {
			t.Errorf("allowlisted %s is no longer declared; drop it from callerAllowlist", key)
		}
	}
}

// declarations lists the package-level functions, methods, constants,
// variables and types the files of tp declare, in source order.
func declarations(tp *types.Package, files []*ast.File, info *types.Info) []declaration {
	var out []declaration
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					continue
				}
				obj := info.Defs[d.Name]
				key := tp.Name() + "." + d.Name.Name
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					key = tp.Name() + "." + rt.(*types.Named).Obj().Name() + "." + d.Name.Name
				}
				out = append(out, declaration{obj, key, d.Pos(), d.End()})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						out = append(out, declaration{info.Defs[s.Name], tp.Name() + "." + s.Name.Name, s.Pos(), s.End()})
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name != "_" {
								out = append(out, declaration{info.Defs[id], tp.Name() + "." + id.Name, s.Pos(), s.End()})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestCIRunPatternsMatch checks that every |-alternative of each quoted
// -run and -fuzz pattern in the CI workflow matches a Test or Fuzz
// function declared in the packages its go test command names. A
// pattern that matches nothing runs nothing, so a renamed or deleted
// test would silently empty a CI step.
func TestCIRunPatternsMatch(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(?:run|fuzz) '([^']*)'`)
	alternatives := 0
	for i, line := range strings.Split(string(data), "\n") {
		patterns := flag.FindAllStringSubmatch(line, -1)
		if !strings.Contains(line, "go test ") || len(patterns) == 0 {
			continue
		}
		var funcs []string
		for _, arg := range strings.Fields(line) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				funcs = append(funcs, testFuncs(t, arg)...)
			}
		}
		if len(funcs) == 0 {
			t.Errorf("ci.yml:%d: go test names no package directory", i+1)
		}
		for _, p := range patterns {
			for _, alt := range strings.Split(p[1], "|") {
				alternatives++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %q: %v", i+1, alt, err)
				} else if !slices.ContainsFunc(funcs, re.MatchString) {
					t.Errorf("ci.yml:%d: %q matches no Test or Fuzz function in its packages", i+1, alt)
				}
			}
		}
	}
	if alternatives == 0 {
		t.Fatal("ci.yml has no quoted -run or -fuzz pattern")
	}
}

// testFuncs lists the Test and Fuzz functions the _test.go files in dir
// declare.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no test files in %s (%v)", dir, err)
	}
	var out []string
	for _, path := range paths {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
				(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				out = append(out, fd.Name.Name)
			}
		}
	}
	return out
}
