package analysis

import (
	"go/ast"
)

// ndTimeAllowedPkgs may call time.Now/time.Since: operational layers whose
// wall-clock readings never reach a Report fingerprint. internal/service
// feeds latency metrics; internal/transport arms dial/IO deadlines;
// internal/obs is telemetry by definition — traces carry timestamps and a
// trace's deterministic skeleton (Structure) excludes them. No other
// library package reads a clock, and no site outside the list is allowed
// one: the engine
// takes its span timestamps from the trace's stopwatch (obs.ClusterTrace,
// which reads no clock when untraced) and the root package its request
// latencies from service.Metrics. CI fails on any non-test allow of this
// analyzer.
var ndTimeAllowedPkgs = []string{
	"internal/obs",
	"internal/service",
	"internal/transport",
	// The fault injector is operational by construction: its schedule is a
	// pure seeded hash, but executing a scheduled delay or straggle stalls
	// on the wall clock. Those stalls never reach a fingerprint — chaos
	// runs assert bit-identity against fault-free references.
	"internal/transport/fault",
}

// ndRandAllowedFuncs are the package-level math/rand functions that do not
// touch the global (process-seeded) source: constructors for explicit
// seeded sources. Everything else (rand.Intn, rand.Int63, rand.Perm,
// rand.Shuffle, rand.Seed, ...) draws from process-global state that SPMD
// ranks cannot replicate.
var ndRandAllowedFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes an explicit *rand.Rand
}

// Nondeterminism flags ambient-entropy reads in deterministic code. Every
// rank of the distributed runtime re-executes the full strategy and must
// derive bit-identical plans, layouts, and outputs; the only sanctioned
// randomness is a *rand.Rand built from a seed threaded through options,
// and the only sanctioned clocks live in the operational allowlist above.
// Tools (package main) are exempt: stamping a benchmark JSON with
// time.Now is their job.
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "time.Now only in the operational allowlist; math/rand only through explicitly seeded sources",
	Run:  runNondeterminism,
}

func runNondeterminism(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	timeAllowed := false
	for _, p := range ndTimeAllowedPkgs {
		if pathHasSuffix(pass.Pkg.Path(), p) {
			timeAllowed = true
			break
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.TypesInfo, call)
			if f == nil {
				return true
			}
			if _, typeName := recvTypeName(f); typeName != "" {
				return true // methods (e.g. (*rand.Rand).Intn) are seeded-source calls
			}
			switch funcPkgPath(f) {
			case "time":
				if !timeAllowed && (f.Name() == "Now" || f.Name() == "Since" || f.Name() == "Until") {
					pass.Reportf(call.Pos(),
						"time.%s reads the wall clock in deterministic code; only the phase-timing/metrics allowlist may (ranks would disagree)", f.Name())
				}
			case "math/rand", "math/rand/v2":
				if !ndRandAllowedFuncs[f.Name()] {
					pass.Reportf(call.Pos(),
						"rand.%s draws from the process-global source; thread a seeded *rand.Rand from options instead", f.Name())
				}
			}
			return true
		})
	}
	return nil
}
