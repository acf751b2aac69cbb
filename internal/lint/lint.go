// Package lint is smartconf-vet: a suite of domain-specific static analyzers
// that machine-check the invariants behind the harness's reproducibility
// guarantees. The golden byte-identical-output tests (cmd/smartconf-bench)
// prove determinism after the fact; these analyzers enforce the properties
// that make those tests pass by construction:
//
//   - determinism: simulation-reachable code must not read the wall clock,
//     draw from the global math/rand source, or emit output in map-iteration
//     order.
//   - cachekey: experiment drivers must reach simulation through the
//     memoized run-cache adapters in runcache.go, so no run bypasses the
//     cache or is keyed incompletely.
//   - floatcmp: controller and statistics math must not compare floats with
//     ==/!= (exact-zero sentinel guards excepted) — convergence checks need
//     tolerances.
//   - guardedby: struct fields annotated `// guardedby: mu` may only be
//     accessed while the named mutex is held in the enclosing method.
//   - hotalloc: code reachable from `//smartconf:hotpath`-annotated request
//     paths must not allocate — no capturing closures, per-call method
//     values, make/new/composite literals, interface boxing, or fmt calls —
//     the static complement of the whole-run AllocsPerRun benchgates.
//   - confbounds: configuration constructions must state finite non-zero
//     Max bounds, and knob fields annotated `clampedby: fn` change only
//     through fn.
//   - seedflow: rand.NewSource seeds in simulation-reachable packages must
//     derive from a seed parameter/field or a non-zero constant.
//   - unused: unexported package-level funcs, methods, types, vars and
//     consts must have a reference from non-test code.
//
// The framework is a deliberately small stand-in for
// golang.org/x/tools/go/analysis (which this module does not depend on):
// an Analyzer holds a Run function over a type-checked Pass, diagnostics
// carry positions, and `//smartconf:allow <analyzer> -- <reason>` comments
// suppress individual findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //smartconf:allow suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant checked.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags  *[]Diagnostic
	allows map[string]map[int][]string // file → line → analyzers allowed
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an allow comment suppresses it.
// Test files are exempt across the suite: tests assert exactness on purpose
// (golden byte-identity checks compare floats exactly, determinism tests pin
// wall-clock seams), and the invariants guard production code paths.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if p.suppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether an `//smartconf:allow <analyzer> -- <reason>`
// comment on the diagnostic's line or the line immediately above covers it.
func (p *Pass) suppressed(pos token.Position) bool {
	lines := p.allows[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == p.Analyzer.Name || name == "all" {
				return true
			}
		}
	}
	return false
}

// allowPrefix introduces a suppression comment. The ` -- <reason>` tail is
// mandatory: a suppression without a recorded justification is ignored (and
// so still fails CI), which keeps the escape hatch auditable.
const allowPrefix = "//smartconf:allow "

// collectAllows indexes every well-formed suppression comment in the files.
func collectAllows(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	allows := map[string]map[int][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, allowPrefix)
				name, reason, ok := strings.Cut(rest, "--")
				if !ok || strings.TrimSpace(reason) == "" {
					continue // no reason given: suppression is inert
				}
				pos := fset.Position(c.Pos())
				m := allows[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					allows[pos.Filename] = m
				}
				for _, n := range strings.Fields(name) {
					m[pos.Line] = append(m[pos.Line], n)
				}
			}
		}
	}
	return allows
}

// AllowSite is one //smartconf:allow suppression comment found in source,
// well-formed or not. Reason is empty when the mandatory ` -- <reason>` tail
// is missing — such a suppression is inert (findings still fire) and
// smartconf-vet -allows reports it as an error.
type AllowSite struct {
	Pos       token.Position
	Analyzers []string // analyzer names listed before the ` -- ` separator
	Reason    string   // justification after ` -- `; empty means malformed
}

// CollectAllowSites returns every suppression comment in the package, in
// file/line order. Unlike collectAllows it keeps malformed (reason-less)
// sites, so the -allows audit can flag them instead of silently ignoring
// them.
func CollectAllowSites(pkg *Package) []AllowSite {
	var sites []AllowSite
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, allowPrefix)
				name, reason, _ := strings.Cut(rest, "--")
				sites = append(sites, AllowSite{
					Pos:       pkg.Fset.Position(c.Pos()),
					Analyzers: strings.Fields(name),
					Reason:    strings.TrimSpace(reason),
				})
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i].Pos, sites[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return sites
}

// Analyzers returns the full smartconf-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		CacheKeyAnalyzer,
		FloatCmpAnalyzer,
		GuardedByAnalyzer,
		HotAllocAnalyzer,
		ConfBoundsAnalyzer,
		SeedFlowAnalyzer,
		UnusedAnalyzer,
	}
}

// Check runs the given analyzers over one loaded package and returns the
// surviving (non-suppressed) diagnostics in file/line order.
func Check(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	allows := collectAllows(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
			allows:   allows,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}
