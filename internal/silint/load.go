package silint

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

// Package is one type-checked target package: the syntax trees plus
// the go/types objects the extractor resolves calls against.
type Package struct {
	// ImportPath is the module-qualified import path.
	ImportPath string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions all files of the loader that produced the package.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the resolution maps (Types, Defs, Uses, Selections).
	Info *types.Info
}

// Loader parses and type-checks packages of a single module using only
// the standard library: module-internal import paths are resolved
// against the module root found by walking up from Dir to go.mod, and
// everything else (the standard library) goes through go/importer's
// source importer. Loaded packages are cached, so analysing many
// packages of one module type-checks shared dependencies once.
type Loader struct {
	fset       *token.FileSet
	dir        string // absolute anchor for relative patterns
	moduleRoot string
	modulePath string
	std        types.ImporterFrom
	cache      map[string]*Package
	inProgress map[string]bool
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, path, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("silint: source importer unavailable")
	}
	return &Loader{
		fset:       fset,
		dir:        abs,
		moduleRoot: root,
		modulePath: path,
		std:        std,
		cache:      make(map[string]*Package),
		inProgress: make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.Trim(strings.TrimSpace(rest), `"`), nil
				}
			}
			return "", "", fmt.Errorf("silint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("silint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves the patterns to package directories and type-checks
// each. A pattern is a directory path, absolute or relative to the
// directory the loader was created for (Options.Dir), with an optional
// "/..." suffix that walks subdirectories (skipping testdata, vendor,
// and directories starting with "." or "_" — but an explicit pattern
// may point inside them).
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
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
		abs := pat
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(l.dir, abs)
		}
		abs = filepath.Clean(abs)
		if fi, err := os.Stat(abs); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("silint: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(abs)
			continue
		}
		err := filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != abs && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for _, d := range dirs {
		path, err := l.importPathFor(d)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(path, d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("silint: %s is outside module %s (%s)", dir, l.modulePath, l.moduleRoot)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// loaded from source inside the module, everything else is delegated
// to the standard-library source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.load(path, filepath.Join(l.moduleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks one module-internal package (memoised).
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.inProgress[path] {
		return nil, fmt.Errorf("silint: import cycle through %s", path)
	}
	l.inProgress[path] = true
	defer delete(l.inProgress, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("silint: %s: %w", path, err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("silint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("silint: %w", err)
		}
		files = append(files, f)
	}
	pkg, err := TypeCheck(types.Config{Importer: l}, path, dir, l.fset, files)
	if err != nil {
		return nil, fmt.Errorf("silint: type-check %s: %w", path, err)
	}
	l.cache[path] = pkg
	return pkg, nil
}

// TypeCheck type-checks one package's parsed files under conf,
// recording the resolution maps the extractor needs.
func TypeCheck(conf types.Config, path, dir string, fset *token.FileSet, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{ImportPath: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
