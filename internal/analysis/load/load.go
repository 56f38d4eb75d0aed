// Package load type-checks Go packages for litmusvet without depending on
// golang.org/x/tools/go/packages: it shells out to `go list -export -deps`
// for the build graph and compiler export data, parses the target packages'
// sources with comments, and type-checks them against the export data with
// the standard library importer. Everything works offline — the export
// files come from the local build cache, produced by the same toolchain
// that builds the repo.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked compilation unit ready for analysis.
type Package struct {
	// ImportPath is the go list identifier; test variants keep their
	// bracketed suffix, e.g. "repro/internal/ledger [repro/internal/ledger.test]".
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
	DepsErrors []*struct{ Err string }
}

// Packages loads and type-checks the packages matching patterns, resolved
// relative to dir. With tests true, packages that have test files are
// returned as their test variant (package sources plus in-package _test.go
// files) and external _test packages are included — the same units `go vet`
// analyzes during `go test`.
func Packages(dir string, tests bool, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-e", "-export", "-deps"}
	if tests {
		args = append(args, "-test")
	}
	args = append(args, "-json=Dir,ImportPath,Name,Export,Standard,DepOnly,ForTest,GoFiles,Imports,ImportMap,Error,DepsErrors")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string) // import path → export data file
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard || p.DepOnly {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // generated test main package
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		targets = append(targets, p)
	}

	// When a package's test variant is present it strictly contains the
	// plain unit, so analyze only the variant — otherwise every diagnostic
	// in a non-test file would be reported twice.
	variants := make(map[string]bool)
	for _, p := range targets {
		if p.ForTest != "" && p.ImportPath != p.ForTest && strings.HasPrefix(p.ImportPath, p.ForTest+" ") {
			variants[p.ForTest] = true
		}
	}

	var pkgs []*Package
	for _, p := range targets {
		if variants[p.ImportPath] {
			continue
		}
		// "p [q.test]" is go list's name for a test variant, given after the
		// build: the export data inside still says "p", and a types.Package
		// takes the path the importer is asked for. So the unit is described
		// in canonical paths only — its own, and each import resolved to the
		// bare path with the variant's export file laid over the plain one.
		u := Unit{ImportPath: canonical(p.ImportPath), PackageFile: exports}
		if len(p.ImportMap) > 0 {
			u.ImportMap = make(map[string]string, len(p.ImportMap))
			u.PackageFile = maps.Clone(exports)
			for raw, mapped := range p.ImportMap {
				path := canonical(mapped)
				u.ImportMap[raw] = path
				if file, ok := exports[mapped]; ok {
					u.PackageFile[path] = file
				} else {
					delete(u.PackageFile, path) // never the plain build in a variant's place
				}
			}
		}
		for _, name := range p.GoFiles {
			if !filepath.IsAbs(name) {
				name = filepath.Join(p.Dir, name)
			}
			u.GoFiles = append(u.GoFiles, name)
		}
		pkg, err := u.Check()
		if err != nil {
			return nil, err
		}
		pkg.ImportPath = p.ImportPath
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// canonical strips go list's " [q.test]" variant suffix from an import path.
func canonical(importPath string) string {
	path, _, _ := strings.Cut(importPath, " ")
	return path
}

// A Unit describes one compilation unit the way the go command does, in
// `go list -export` output and in the .cfg file go vet hands a vettool —
// the field names are that file's JSON keys.
type Unit struct {
	// ImportPath becomes the types.Package path.
	ImportPath string
	// GoFiles are the unit's sources, as absolute paths.
	GoFiles []string
	// ImportMap maps an import path as written in the sources to the
	// canonical package path (vendoring); PackageFile maps a canonical path
	// to its compiler export data — a test variant's, where the unit is
	// built against one.
	ImportMap   map[string]string
	PackageFile map[string]string
	// Compiler produced the export data (default "gc"); GoVersion is the
	// unit's language version ("" selects the toolchain's).
	Compiler  string
	GoVersion string
}

// Check parses the unit's sources with comments and type-checks them
// against the export data — the one set-up both litmusvet drivers
// (standalone over go list, and go vet's -vettool) analyze.
func (u Unit) Check() (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range u.GoFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	compiler := u.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	// The importer names and caches a package by the path it is asked for,
	// so the import map is applied in front of it and both it and the
	// lookup see canonical paths only.
	base := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := u.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (build the package first)", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := u.ImportMap[path]; ok {
				path = mapped
			}
			return base.Import(path)
		}),
		GoVersion: u.GoVersion,
		Error:     func(error) {}, // collect everything; first error reported below
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := conf.Check(u.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", u.ImportPath, err)
	}
	return &Package{
		ImportPath: u.ImportPath,
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		Info:       info,
	}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
