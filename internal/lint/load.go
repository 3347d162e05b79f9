package lint

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

// Package is one parsed, type-checked, lint-ready package.
type Package struct {
	Path  string // import path, used for rule scoping
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // build-selected non-test files, in file-name order
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library. Module-internal imports resolve through
// the loader itself (so every rule sees one canonical *types.Package
// per module package); everything else falls back to the "source"
// importer, which type-checks the dependency from GOROOT source.
type Loader struct {
	Fset    *token.FileSet
	ctxt    build.Context
	root    string // module root directory (holds go.mod)
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// NewLoader returns a loader rooted at the module directory root.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctxt := build.Default
	// The source importer reads &build.Default directly; force pure-Go
	// views of the stdlib so type-checking never needs a C toolchain.
	build.Default.CgoEnabled = false
	ctxt.CgoEnabled = false
	l := &Loader{
		Fset:    fset,
		ctxt:    ctxt,
		root:    abs,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// ModulePath returns the module path declared in go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// loaded (and cached) by the loader, the rest delegates to the source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.moduleRel(path); ok {
		p, err := l.LoadDir(filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// moduleRel reports whether path names a package of this module, and
// its directory relative to the module root.
func (l *Loader) moduleRel(path string) (string, bool) {
	if path == l.modPath {
		return ".", true
	}
	if strings.HasPrefix(path, l.modPath+"/") {
		return path[len(l.modPath)+1:], true
	}
	return "", false
}

// pathForDir is the inverse of moduleRel.
func (l *Loader) pathForDir(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside the module", dir)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir loads the single package in dir (non-test files only, build
// constraints honored with the default tag set). Results are cached by
// import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.pathForDir(abs)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctxt.ImportDir(abs, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var terrs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(terrs) < 10 {
				terrs = append(terrs, err.Error())
			}
		},
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(terrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s failed:\n\t%s", path, strings.Join(terrs, "\n\t"))
	}
	p := &Package{
		Path:  path,
		Dir:   abs,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = p
	return p, nil
}

// LoadPatterns expands go-style package patterns (a directory, or a
// prefix ending in /... for a recursive walk; testdata, vendor and
// dot/underscore directories are skipped) and loads every matched
// package. Directories without buildable Go files are skipped silently.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.root, base)
		}
		if !recursive {
			add(base)
			continue
		}
		if err := walkDirs(base, add); err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// walkDirs calls add for base and every directory below it, skipping
// testdata, vendor and dot/underscore directories.
func walkDirs(base string, add func(dir string)) error {
	return filepath.Walk(base, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		name := fi.Name()
		if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		add(path)
		return nil
	})
}

// wholeModule reports whether pkgs is a whole module: the package with
// the shortest import path sits in a directory holding a go.mod, and
// every package that a recursive walk from there finds is in pkgs.
func wholeModule(pkgs []*Package) bool {
	if len(pkgs) == 0 {
		return false
	}
	root := pkgs[0]
	have := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		have[p.Dir] = true
		if len(p.Path) < len(root.Path) {
			root = p
		}
	}
	if _, err := os.Stat(filepath.Join(root.Dir, "go.mod")); err != nil {
		return false
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	whole := true
	err := walkDirs(root.Dir, func(dir string) {
		if !have[dir] {
			if _, err := ctxt.ImportDir(dir, 0); err == nil {
				whole = false
			}
		}
	})
	return whole && err == nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mp := strings.TrimSpace(rest)
			mp = strings.Trim(mp, `"`)
			if mp != "" {
				return mp, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}
