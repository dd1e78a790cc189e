// Package lint is grove's in-tree static-analysis framework: it loads the
// module's packages as typed ASTs using nothing but the standard library
// (go/parser, go/ast, go/types — no golang.org/x/tools), runs a set of
// project-specific analyzers over them, and reports file:line diagnostics.
//
// Analyzers enforce invariants that `go vet` cannot see because they are
// grove conventions rather than language rules: the colstore read-lock
// protocol (lockpair), the no-silently-dropped-errors rule for engine
// packages (droppederr), the fsio-mediated-I/O rule for the persistence
// layer (fsioonly), the Prometheus metric-name contract of the obs registry
// (metricname), the module's stdlib-only dependency policy (stdlibonly), and
// mixed atomic/plain field access (atomicmix). Copied locks are `go vet
// -copylocks`'s job, which `make check` runs first.
//
// A second, interprocedural tier builds a module-wide call graph with
// per-function summaries (see callgraph.go) and reasons across function
// boundaries: goroutine join/termination and panic-recovery obligations
// (goroleak), a global lock-acquisition order free of cycles and of blocking
// operations under locks (lockorder), and compiler-verified
// allocation-freedom of //grove:hotpath kernels (hotalloc).
//
// A finding can be acknowledged in source with a pragma comment on the same
// line or the line directly above:
//
//	_ = srv.Serve(ln) //grovevet:ignore droppederr Serve only returns after Close
//
// The pragma must name a reason; a bare `grovevet:ignore` is itself reported.
// Naming analyzers (comma-separated) limits the suppression to them; with no
// leading analyzer list the pragma silences every analyzer on that line.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one named check. Run, when set, is invoked once per package;
// RunModule, when set, is invoked once with the whole module after the
// per-package passes, for checks that need cross-package state (e.g.
// duplicate metric registrations).
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass is the per-package unit of work handed to an Analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Module.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass is the module-wide unit of work handed to RunModule.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Module.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns grove's full analyzer suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockPair, DroppedErr, FsioOnly, MetricName, StdlibOnly, AtomicMix,
		GoroLeak, LockOrder, HotAlloc,
	}
}

// DefaultFilter scopes analyzers the way `make lint` runs them: droppederr
// applies only to internal/... packages (cmd and example binaries may
// legitimately best-effort print), fsioonly only to the persistence layer
// (internal/colstore and internal/wal — the packages whose crash-fault
// sweeps depend on every file op routing through the fsio seam; elsewhere
// direct os calls are fine), everything else module-wide.
func DefaultFilter(m *Module) func(*Analyzer, *Package) bool {
	internalPrefix := m.Path + "/internal/"
	colstorePath := m.Path + "/internal/colstore"
	walPath := m.Path + "/internal/wal"
	return func(a *Analyzer, p *Package) bool {
		switch a.Name {
		case DroppedErr.Name:
			return strings.HasPrefix(p.Path, internalPrefix)
		case FsioOnly.Name:
			return p.Path == colstorePath || strings.HasPrefix(p.Path, colstorePath+"/") ||
				p.Path == walPath || strings.HasPrefix(p.Path, walPath+"/")
		}
		return true
	}
}

// Run executes the analyzers over the module's packages, applies pragma
// suppression, and returns the surviving diagnostics sorted by position.
// filter, when non-nil, limits which packages each per-package analyzer
// visits (module-wide passes always see every package).
func Run(m *Module, analyzers []*Analyzer, filter func(*Analyzer, *Package) bool) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range m.Pkgs {
				if filter != nil && !filter(a, pkg) {
					continue
				}
				a.Run(&Pass{Analyzer: a, Module: m, Pkg: pkg, report: report})
			}
		}
		if a.RunModule != nil {
			a.RunModule(&ModulePass{Analyzer: a, Module: m, report: report})
		}
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	out := diags[:0]
	for _, d := range diags {
		if !m.suppressed(d, known) {
			out = append(out, d)
		}
	}
	out = append(out, m.pragmaHygiene(known)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// pragmaMarker introduces a suppression comment.
const pragmaMarker = "grovevet:ignore"

// pragma is one grovevet:ignore comment, parsed at load time.
type pragma struct {
	pos  token.Position
	rest string // everything after the marker, trimmed
}

// split separates the optional analyzer list from the reason. The first
// whitespace-delimited token counts as an analyzer list only when every
// comma-separated element is a known analyzer name; otherwise the whole rest
// is the reason and the pragma applies to all analyzers.
func (p pragma) split(known map[string]bool) (names []string, reason string) {
	fields := strings.Fields(p.rest)
	if len(fields) == 0 {
		return nil, ""
	}
	first := strings.Split(fields[0], ",")
	allKnown := true
	for _, n := range first {
		if !known[n] {
			allKnown = false
			break
		}
	}
	if allKnown {
		return first, strings.Join(fields[1:], " ")
	}
	return nil, strings.Join(fields, " ")
}

// covers reports whether the pragma silences analyzer a.
func (p pragma) covers(a string, known map[string]bool) bool {
	names, reason := p.split(known)
	if reason == "" {
		return false // reason-less pragmas never suppress; pragmaHygiene flags them
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if n == a {
			return true
		}
	}
	return false
}

// suppressed reports whether d is covered by a pragma on its line or the
// line directly above.
func (m *Module) suppressed(d Diagnostic, known map[string]bool) bool {
	for _, p := range m.pragmas[d.Pos.Filename] {
		if (p.pos.Line == d.Pos.Line || p.pos.Line == d.Pos.Line-1) && p.covers(d.Analyzer, known) {
			return true
		}
	}
	return false
}

// pragmaHygiene reports pragmas that cannot suppress anything: missing a
// reason, or naming no known analyzer while reading like a bare marker.
func (m *Module) pragmaHygiene(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, ps := range m.pragmas {
		for _, p := range ps {
			if _, reason := p.split(known); reason == "" {
				out = append(out, Diagnostic{
					Analyzer: "grovevet",
					Pos:      p.pos,
					Message:  "grovevet:ignore pragma needs an explanation (and optionally a comma-separated analyzer list)",
				})
			}
		}
	}
	return out
}
