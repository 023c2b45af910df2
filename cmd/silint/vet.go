package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"

	"sian/internal/depgraph"
	"sian/internal/silint"
)

// The go vet driver protocol (`go vet -vettool=$(which silint)`):
// cmd/go runs `silint -V=full` for a tool ID, `silint -flags` for the
// flags it may forward, then `silint [forwarded flags] vet.cfg` once
// per package, where the JSON config describes the type-check unit —
// source files plus compiled export data for every dependency. This is
// x/tools' unitchecker contract, hand-rolled because this module
// carries no third-party dependencies.

// vetVersion answers -V=full. cmd/go hashes the line into its action
// IDs; the binary fingerprint makes a rebuilt tool invalidate vet
// caches.
func vetVersion(stdout io.Writer) (int, error) {
	_, err := fmt.Fprintf(stdout, "%s version devel buildID=%s\n", filepath.Base(os.Args[0]), fingerprint())
	return 0, err
}

// vetFlags answers -flags with the one flag go vet forwards: -model.
func vetFlags(stdout io.Writer, fs *flag.FlagSet) (int, error) {
	data, err := json.Marshal([]map[string]any{{"Name": "model", "Bool": false, "Usage": fs.Lookup("model").Usage}})
	if err != nil {
		return 2, err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return 0, err
}

// fingerprint hashes the executable itself.
func fingerprint() string {
	exe, err := os.Executable()
	if err == nil {
		var data []byte
		if data, err = os.ReadFile(exe); err == nil {
			return fmt.Sprintf("%x", sha256.Sum256(data))[:24]
		}
	}
	return "unknown"
}

// config is the part of the JSON unit description go vet writes for
// each package (the unitchecker.Config contract) that silint reads.
type config struct {
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unitcheck analyses one go vet unit: parse the package's files,
// type-check them against the compiled export data of the
// dependencies, run the selected checks and print the diagnostics on
// stderr, each followed by its suggested fixes.
func unitcheck(cfgPath string, models []depgraph.Model, stderr io.Writer) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 2, err
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 2, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}
	// silint computes no cross-package facts, but go vet expects the
	// output file of every unit to exist before dependents run.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return 2, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 2, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	// Export data of each dependency comes from the compiled package
	// files go vet lists; ImportMap canonicalises source import paths.
	compiled := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if canonical, ok := cfg.ImportMap[importPath]; ok {
			importPath = canonical
		}
		return compiled.Import(importPath)
	})
	conf := types.Config{Importer: imp, Sizes: types.SizesFor(compiler, build.Default.GOARCH)}
	pkg, err := silint.TypeCheck(conf, cfg.ImportPath, cfg.Dir, fset, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 2, err
	}

	pr, err := silint.AnalyzePackage(pkg, models)
	if err != nil {
		return 2, err
	}
	for _, d := range pr.Diagnostics {
		fmt.Fprintln(stderr, d)
		for _, f := range d.Fixes {
			fmt.Fprintf(stderr, "\tfix: %s (rank %d)\n", f.Message, f.Rank)
		}
		for _, f := range silint.AnnotationFixes(pkg, pr, d) {
			fmt.Fprintf(stderr, "\tfix: %s\n", f.Message)
		}
	}
	if len(pr.Diagnostics) > 0 {
		return 1, nil
	}
	return 0, nil
}
