package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Dir   string
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages with a shared file set and a
// shared source importer, so dependencies (including the standard
// library) are checked once per process, not once per package.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader backed by the stdlib source importer — the
// only importer that works without prebuilt export data, keeping the
// module free of external dependencies.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Load resolves go-style package patterns relative to the module root
// and returns the type-checked packages in deterministic (path-sorted)
// order. A pattern is either a directory ("./internal/obs", ".") or a
// recursive prefix ("./...", "./internal/..."). Directories named
// testdata, hidden directories and _-prefixed directories are skipped,
// as are _test.go files — fedvallint checks shipped code.
func (l *Loader) Load(root string, patterns ...string) ([]*Package, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			base := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if err := walkPackageDirs(filepath.Join(root, base), dirs); err != nil {
				return nil, err
			}
			continue
		}
		dir := filepath.Join(root, pat)
		if hasGoFiles(dir) {
			dirs[dir] = true
		} else {
			return nil, fmt.Errorf("pattern %q: no Go files in %s", pat, dir)
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	var pkgs []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses every non-test Go file in dir that the build constraints
// select for the current GOOS/GOARCH (file-name suffixes and //go:build
// lines, as the go command reads them) and type-checks them as one package
// under the given import path. The import path is what path-sensitive
// analyzers (determinism's value-affecting package list) see, which is how
// the golden testdata suites impersonate real packages.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Dir: dir, Path: path, Fset: l.fset, Files: files, Pkg: tpkg, Info: info}, nil
}

// walkPackageDirs adds every directory under root containing Go files.
func walkPackageDirs(root string, dirs map[string]bool) error {
	return filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			dirs[p] = true
		}
		return nil
	})
}

// hasGoFiles reports whether dir directly contains at least one non-test
// Go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}

// ModuleRoot walks up from dir to the nearest directory containing
// go.mod — how cmd/fedvallint and the self-lint test find the repo root
// regardless of the working directory they start in.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}
