// Package lint is the repo's static-analysis suite: a stdlib-only
// driver (go/parser + go/ast + go/types, no golang.org/x/tools) that
// loads every package in the module and runs repo-specific passes
// enforcing the concurrency and determinism invariants the parallel
// induction pipeline depends on. See cmd/ilint for the CLI and
// DESIGN.md "Static analysis" for the pass catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the analyzed module.
type Package struct {
	Path  string // import path
	Dir   string // directory the files were parsed from
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a loaded module: every package found under the root
// directory, parsed and type-checked, in deterministic path order.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	cg *CallGraph // built on first use, shared by the passes
}

// Config directs Load.
type Config struct {
	// Dir is the root directory to analyze. Every subdirectory holding
	// .go files becomes a package (directories named "testdata" and
	// hidden directories are skipped, as the go tool does).
	Dir string
	// ModulePath is the import path corresponding to Dir. When empty it
	// is read from Dir/go.mod.
	ModulePath string
	// Deps maps additional module paths to their root directories, so
	// fixture modules can import the real module under test. Imports
	// that match neither ModulePath nor Deps resolve through the
	// standard library source importer.
	Deps map[string]string
}

// Load parses and type-checks every package under cfg.Dir. Test files
// (*_test.go) are not loaded: the passes target production code, and
// external test packages would need a second type-checking universe.
func Load(cfg Config) (*Program, error) {
	if cfg.ModulePath == "" {
		mp, err := modulePath(cfg.Dir)
		if err != nil {
			return nil, err
		}
		cfg.ModulePath = mp
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:     fset,
		fallback: importer.ForCompiler(fset, "source", nil),
		roots:    []moduleRoot{{path: cfg.ModulePath, dir: cfg.Dir}},
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
	}
	// Sorted so root precedence (and any resolution diagnostics) is
	// identical run to run.
	depPaths := make([]string, 0, len(cfg.Deps))
	for p := range cfg.Deps {
		depPaths = append(depPaths, p)
	}
	sort.Strings(depPaths)
	for _, p := range depPaths {
		ld.roots = append(ld.roots, moduleRoot{path: p, dir: cfg.Deps[p]})
	}

	dirs, err := packageDirs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: fset}
	for _, dir := range dirs {
		path := importPathFor(cfg.ModulePath, cfg.Dir, dir)
		pkg, err := ld.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			prog.Packages = append(prog.Packages, pkg)
		}
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].Path < prog.Packages[j].Path
	})
	return prog, nil
}

// modulePath reads the module declaration from dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s/go.mod", dir)
}

// packageDirs walks root and returns every directory containing
// non-test .go files, skipping testdata and hidden directories.
func packageDirs(root string) ([]string, error) {
	var out []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		name := fi.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		gofiles, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(gofiles) > 0 {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// goFilesIn lists the non-test .go files of one directory.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// importPathFor maps a directory under the module root to its import
// path.
func importPathFor(modPath, modDir, dir string) string {
	rel, err := filepath.Rel(modDir, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// moduleRoot is one import-path prefix the loader resolves from disk.
type moduleRoot struct {
	path string
	dir  string
}

// dirFor resolves an import path inside the root, if it belongs to it.
func (r moduleRoot) dirFor(path string) (string, bool) {
	if path == r.path {
		return r.dir, true
	}
	if rest, ok := strings.CutPrefix(path, r.path+"/"); ok {
		return filepath.Join(r.dir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// loader type-checks module packages on demand, recursing through
// module-internal imports and delegating everything else (the standard
// library) to the source importer.
type loader struct {
	fset     *token.FileSet
	fallback types.Importer
	roots    []moduleRoot
	pkgs     map[string]*Package
	checking map[string]bool
}

// Import implements types.Importer for module-internal resolution.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	for _, root := range l.roots {
		if dir, ok := root.dirFor(path); ok {
			pkg, err := l.load(path, dir)
			if err != nil {
				return nil, err
			}
			if pkg == nil {
				return nil, fmt.Errorf("lint: no Go files in %s", dir)
			}
			return pkg.Types, nil
		}
	}
	return l.fallback.Import(path)
}

// load parses and type-checks one package directory. It returns
// (nil, nil) when the directory holds no non-test Go files.
func (l *loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	if len(names) == 0 {
		return nil, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s failed:\n  %s", path, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s failed: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
