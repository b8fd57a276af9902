package lint

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// DeadExport reports exported identifiers declared in internal packages
// that no non-test file in the module uses: package-level functions,
// types, variables and constants, and methods on exported types. Such an
// identifier is dead code or a test helper in production code: delete
// it, or move it into a _test.go file. A use inside its own package
// counts, and so does a use of an interface method of the same name that
// the method's type implements. Methods reached only through
// standard-library interfaces (fmt.Stringer) carry
// //hotnoc:allow deadexport <reason>.
//
// Deadness is a whole-program property, so the analyzer stays silent
// unless the run loaded the whole module.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "report exported identifiers in internal packages with no non-test use in the module",
	Run:  runDeadExport,
}

func runDeadExport(pass *Pass) error {
	if !strings.Contains("/"+pass.Pkg.ImportPath+"/", "/internal/") || !wholeModule(pass.All) {
		return nil
	}
	used, ifaces := moduleUses(pass.All)
	for ident, obj := range pass.Pkg.Info.Defs {
		if obj == nil || !obj.Exported() || inTestFile(pass.Pkg.Fset, ident.Pos()) || used[obj] || implementsUsed(obj, ifaces) {
			continue
		}
		name := obj.Name()
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			recv := fn.Signature().Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || !named.Obj().Exported() || types.IsInterface(named) {
				continue // methods of unexported types and interface methods are out of scope
			}
			name = "(" + types.TypeString(fn.Signature().Recv().Type(), types.RelativeTo(obj.Pkg())) + ")." + name
		} else if obj.Parent() != pass.Pkg.Types.Scope() {
			continue // not package-level: a field, parameter or local
		}
		pass.Reportf(ident.Pos(), "exported %s has no non-test use in the module", name)
	}
	return nil
}

// moduleUses returns every object a non-test file of pkgs refers to,
// with generic instances resolved to their declarations, and the used
// interface methods by name.
func moduleUses(pkgs []*Package) (map[types.Object]bool, map[string][]*types.Interface) {
	used := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{}
	for _, pkg := range pkgs {
		for ident, obj := range pkg.Info.Uses {
			if inTestFile(pkg.Fset, ident.Pos()) {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if recv := o.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaces[o.Name()] = append(ifaces[o.Name()], recv.Type().Underlying().(*types.Interface))
				}
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
	}
	return used, ifaces
}

// implementsUsed reports whether obj is a method whose receiver type
// implements a used interface method of the same name.
func implementsUsed(obj types.Object, ifaces map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return false
	}
	recv := fn.Signature().Recv().Type()
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.File(pos).Name(), "_test.go")
}

// wholeModule reports whether pkgs is a whole-module load: every
// directory under the module root (the nearest go.mod above a loaded
// package) that holds a non-test Go file is a loaded package, skipping
// what the go command skips (testdata, "." and "_" directories, nested
// modules).
func wholeModule(pkgs []*Package) bool {
	if len(pkgs) == 0 {
		return false
	}
	root := pkgs[0].Dir
	for !fileExists(filepath.Join(root, "go.mod")) {
		if filepath.Dir(root) == root {
			return false
		}
		root = filepath.Dir(root)
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[filepath.Clean(p.Dir)] = true
	}
	complete := true
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				fileExists(filepath.Join(path, "go.mod")) {
				return filepath.SkipDir
			}
		} else if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !loaded[filepath.Dir(path)] {
			complete = false
			return filepath.SkipAll
		}
		return nil
	})
	return err == nil && complete
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
