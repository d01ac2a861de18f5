// Package analysis is a stdlib-only static-analysis framework for the
// repository's determinism, float-comparison, cache-fingerprint and
// serving contracts.
//
// The engine's reproducibility guarantees (Workers=1 ≡ Workers=N,
// byte-identical resume, content-addressed cache hits indistinguishable
// from fresh gathers) rest on invariants that the type system cannot
// express: no ambient state in result-producing code, no bare float
// equality, no config field missing from a cache fingerprint. The
// serving stack adds two more: every mutex is released by the defer
// that follows its Lock, and no request chain mints a detached context.
// This package provides the machinery to enforce those invariants at
// analysis time — a loader that typechecks the module via `go list -export`
// export data (go/parser + go/types + go/importer only; no dependency on
// golang.org/x/tools), a Pass/Analyzer model, //lint:ignore suppression
// handling, and deterministic diagnostic ordering — and
// internal/analysis/passes holds the project-specific checks built on
// it. cmd/additivity-lint is the multichecker front end.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named check. Run inspects a single typechecked
// package and reports findings through the pass.
type Analyzer struct {
	// Name identifies the check in diagnostics and in
	// //lint:ignore <name> <reason> suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the check on one package.
	Run func(*Pass)
}

// A Pass carries one typechecked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files (including in-package test
	// files for module packages).
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// Info holds the type-checker's expression facts.
	Info *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding, positioned for file:line:col output.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the conventional one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// InScope reports whether a package path falls under one of the given
// import-path suffixes. Fixture packages — anything under a testdata
// directory or with a path segment containing "fixture" — are always in
// scope, so the golden-fixture suites and the lint smoke test exercise
// every pass regardless of where the fixture tree lives.
func InScope(pkgPath string, suffixes ...string) bool {
	if strings.Contains(pkgPath, "testdata") || strings.Contains(pkgPath, "fixture") {
		return true
	}
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. The loader merges in-package test files into their package so
// type information stays complete; the serving pass skips them,
// because test goroutines and contexts follow the test harness's
// lifecycle rather than the serving contracts.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// PathMatches reports whether an import path is, or ends with, the given
// suffix at a path-segment boundary ("internal/stats" matches
// "additivity/internal/stats" but not "x/yinternal/stats").
func PathMatches(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// Deref strips one level of pointer.
func Deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions and
// indirect calls through function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation: f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr: // generic instantiation: f[T1, T2](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	default:
		return nil
	}
	if id == nil {
		return nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn
	}
	return nil
}
