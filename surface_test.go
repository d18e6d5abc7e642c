package mpcquery

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestStrategyEntryPointSurface freezes the exported Run*/Execute*/Detect*
// functions and methods of the three strategy-family packages: one full form
// per family (the one strategy.go and benchmark/ call), a zero-option
// convenience only where non-test code calls it, and the two other-model
// runs of core. It also freezes what they return: every strategy run reports
// one engine.RunRecord — only the answer-fraction run (RunPlanCapped) and the
// statistics protocol (StatsSpec.Run*, whose round AddStatsCharges folds
// into a record) return something else — and the packages declare no other
// exported *Result type.
func TestStrategyEntryPointSurface(t *testing.T) {
	want := map[string][]string{
		"internal/core": {
			"Run", "RunPlan", "RunPlanAggregateNet", "RunPlanCapped",
			"RunPlanInputServers", "RunPlanWithCapNet",
		},
		"internal/skew": {
			"RunGenericPlannedNet", "RunStarPlannedNet", "RunStarSampled",
			"RunTrianglePlannedNet", "StatsSpec.Run", "StatsSpec.RunNet",
		},
		"internal/multiround": {
			"Execute", "ExecuteAggregateCapMemoNet",
		},
	}
	notRecords := map[string]bool{"RunPlanCapped": true, "StatsSpec.Run": true, "StatsSpec.RunNet": true}
	results := map[string]bool{"CappedResult": true, "StatsResult": true, "CCResult": true}
	for dir, names := range want {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nonTest, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if !isEntryPointName(d.Name.Name) {
							continue
						}
						name := d.Name.Name
						if d.Recv != nil {
							name = strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*") + "." + name
						}
						got = append(got, name)
						if ret := resultTypes(d.Type.Results); !notRecords[name] && ret != "*engine.RunRecord" {
							t.Errorf("%s.%s returns %s: return engine.RunRecord — do not add a result dialect", dir, name, ret)
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							ts, ok := spec.(*ast.TypeSpec)
							if ok && ts.Name.IsExported() && strings.HasSuffix(ts.Name.Name, "Result") && !results[ts.Name.Name] {
								t.Errorf("%s declares type %s: return engine.RunRecord — do not add a result dialect", dir, ts.Name.Name)
							}
						}
					}
				}
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, names) {
			t.Errorf("%s exports entry points\n  %v\nwant\n  %v\nextend the full form's parameters or add a strategy — do not add a rung", dir, got, names)
		}
	}
}

// TestOptionSurface freezes the exported With* constructors of the root
// package — run, service and runtime options alike. Every knob is a branch
// each caller may take and each test must cover, so one joins the list only
// when two non-test callers need different values; a knob every caller sets
// the same way is a constant.
func TestOptionSurface(t *testing.T) {
	want := []string{
		"WithAggregate", "WithAggregatePushdown", "WithCaching", "WithCircuitBreaker",
		"WithContext", "WithDebugListener", "WithDialBudget", "WithFaultInjection",
		"WithLoadCap", "WithOutputSink", "WithRecovery",
		"WithRequestCoalescing", "WithRoundBudget", "WithRoundTimeout", "WithRuntime",
		"WithSeed", "WithServers", "WithServiceQueue", "WithServiceWorkers",
		"WithStrategy", "WithStreamChunk", "WithStreaming", "WithTrace",
		"WithWriteRetries",
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nonTest, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() &&
					strings.HasPrefix(fd.Name.Name, "With") {
					got = append(got, fd.Name.Name)
				}
			}
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("root package exports %d With* options\n  %v\nwant %d\n  %v\na new option needs two non-test callers that need different values",
			len(got), got, len(want), want)
	}
}

func nonTest(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

// TestOneComputationPhase keeps every strategy family on localjoin's one
// computation phase (localjoin.Phase / localjoin.Output): no non-test file of
// core, skew or multiround sets up kernel scratches or an index cache,
// evaluates a join or stacks per-server outputs itself. core/capped.go is
// exempt: Theorem 3.5's budget-cut fragments are not inbox fragments. Nor
// does any of them read an inbox outside a phase (Cluster.Inbox): under a
// runtime a rank holds only its owned servers' inboxes. core/capped.go and
// multiround/cc.go build clusters no runtime ever links, and skew/stats.go
// reads the statistics round's broadcasts from an owned server's inbox.
func TestOneComputationPhase(t *testing.T) {
	inboxReads := map[string]bool{
		"internal/core/capped.go": true, "internal/multiround/cc.go": true, "internal/skew/stats.go": true,
	}
	forbidden := map[string]bool{
		"NewIndexCache": true, "NewWorkerScratches": true,
		"EvaluateAtoms": true, "EvaluateAtomsStream": true, "engine.Concat": true,
	}
	for _, dir := range []string{"internal/core", "internal/skew", "internal/multiround"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nonTest, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				if filepath.ToSlash(path) == "internal/core/capped.go" {
					continue
				}
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					name := sel.Sel.Name
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "engine" {
						name = "engine." + name
					}
					if forbidden[name] {
						t.Errorf("%s calls %s: use the localjoin computation phase — do not add a second one",
							fset.Position(call.Pos()), name)
					}
					if name == "Inbox" && !inboxReads[filepath.ToSlash(path)] {
						t.Errorf("%s calls .Inbox(: a rank holds only its owned servers' inboxes — read inside the phase",
							fset.Position(call.Pos()))
					}
					return true
				})
			}
		}
	}
}

func isEntryPointName(name string) bool {
	return strings.HasPrefix(name, "Run") || strings.HasPrefix(name, "Execute") || strings.HasPrefix(name, "Detect")
}

// resultTypes renders a function's result list, e.g. "*engine.RunRecord".
func resultTypes(fl *ast.FieldList) string {
	if fl == nil {
		return ""
	}
	var parts []string
	for _, f := range fl.List {
		for range max(1, len(f.Names)) {
			parts = append(parts, types.ExprString(f.Type))
		}
	}
	return strings.Join(parts, ", ")
}

// idleExportAllowlist names the exported functions and methods under
// internal/ that no non-test file calls, each with the reason it stays.
// Keys are "<dir>.<Func>" or "<dir>.<Type>.<Method>".
var idleExportAllowlist = map[string]string{
	// Statements of the paper, kept to become gates that assert each
	// theorem against measured runs.
	"internal/bounds.ChainRoundsLB":                "Corollary 5.15: rounds for L_k",
	"internal/bounds.ConnectedComponentsRoundsLB":  "Theorem 5.20: rounds for connected components",
	"internal/bounds.CycleRoundsLB":                "Lemma 5.18: rounds for C_k",
	"internal/bounds.ExpectedOutput":               "Lemma 3.6: expected answers on matching databases",
	"internal/bounds.SkewedLB":                     "Section 4: heavy-hitter load lower bound",
	"internal/core.RunPlanInputServers":            "Section 2.1: the input-server model; frozen by TestStrategyEntryPointSurface",
	"internal/entropy.AGMBound":                    "Section 2.4: AGM output bound; a ceiling for the local join's intermediates",
	"internal/entropy.Binary":                      "Proposition 3.11: binary entropy",
	"internal/entropy.Conditional":                 "equation (4): conditional entropy",
	"internal/entropy.Friedgut":                    "inequality (7): Friedgut",
	"internal/entropy.Proposition314Holds":         "Proposition 3.14: matching entropy against size",
	"internal/multiround.EpsPlan.OutputFractionUB": "Theorem 5.11: answer fraction of r+1 rounds",

	// Referenced by tests only: accessors and references the tests assert
	// through.
	"internal/aggregate.FoldTable.Len":            "aggregate tests count groups without finalizing",
	"internal/core.SequentialAnswerWithSelfJoins": "oracle of the self-join tests",
	"internal/data.Relation.IsView":               "zero-copy view tests",
	"internal/engine.Inbox.NumBatches":            "engine tests compare batch layout across delivery paths",
	"internal/engine.Emitter.EmitFanout":          "delivery-order and transport tests script multicasts tuple by tuple; EmitRouted stages the same groups from a route",
	"internal/hashing.Grid.CoordsOf":              "hashing tests invert the grid",
	"internal/hashing.Grid.ServerOf":              "hashing tests invert the grid",
	"internal/hashing.Grid.SubcubeSize":           "hashing and routing tests",
	"internal/localjoin.EvaluateOrdered":          "join-order ablation benchmark and its error test",
	"internal/localjoin/baseline.Evaluate":        "per-server order reference of the kernel equivalence tests",
	"internal/multiround.EpsPlan.Verify":          "multiround tests check plans against Definition 5.5",
	"internal/obs.Histogram.Min":                  "registry tests",
	"internal/obs.Trace.Structure":                "trace determinism tests",
	"internal/packing.VertexCover":                "packing tests check τ* against the dual LP",
	"internal/service.Cache.Len":                  "cache eviction and purge tests",
	"internal/skew.GenericPlan.NumPatterns":       "generic-plan tests",

	// Fixtures that tests in several packages share: moving them into
	// _test.go files would duplicate them, not remove them.
	"internal/data.FromTuples":  "relation literal in the tests of five packages",
	"internal/data.RandomGraph": "graph generator of the data and multiround tests",
	"internal/query.K4":         "query fixture of the query and packing tests",
	"internal/query.MustParse":  "query literal in the tests of four packages and the root",
	"internal/query.SimpleJoin": "query fixture of the packing and core tests",

	"internal/query.Query.IsAcyclic":                 "decides when a semijoin pre-pass may run on a fragment",
	"internal/localjoin.MissingRelationError.Unwrap": "errors.Is/As unwrap the typed error",
}

// TestNoIdleInternalExports keeps internal/ free of exported functions and
// methods nothing runs. Go's internal rule means only this repository can
// call them, so one whose only callers are _test.go files is dead code.
// Every exported function or method declared in a non-test file under
// internal/ (analysistest, the analyzers' test harness, aside) must be named
// by a non-test file somewhere in the repository, benchmark/ included, or
// appear in idleExportAllowlist with its reason. Functions match by package
// and name; methods match by name — any selector, or an interface method,
// of that name. *ForTest hooks exist for tests and are exempt. An
// allowlisted name that gains a caller or disappears must leave the list.
func TestNoIdleInternalExports(t *testing.T) {
	refs := map[string]bool{}    // "mpcquery/<dir>.Func" and ".Method"
	decls := map[string]string{} // "<dir>.Func" or "<dir>.Type.Method" -> its refs key
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := "mpcquery"
		if dir != "." {
			pkg += "/" + dir
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					refs[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				refs["."+n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				refs[pkg+"."+n.Name] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						refs["."+name.Name] = true
					}
				}
			}
			return true
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(decl, visit)
				continue
			}
			if fd.Recv != nil {
				ast.Inspect(fd.Recv, visit)
			}
			ast.Inspect(fd.Type, visit)
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
			if !strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "internal/analysis/analysistest") ||
				!fd.Name.IsExported() || strings.HasSuffix(fd.Name.Name, "ForTest") {
				continue
			}
			key, ref := dir+"."+fd.Name.Name, pkg+"."+fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				key, ref = dir+"."+types.ExprString(recv)+"."+fd.Name.Name, "."+fd.Name.Name
			}
			decls[key] = ref
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(decls))
	for key := range decls {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		_, allowed := idleExportAllowlist[key]
		switch used := refs[decls[key]]; {
		case !used && !allowed:
			t.Errorf("%s is exported but only tests call it: delete it, or add it to idleExportAllowlist with a reason", key)
		case used && allowed:
			t.Errorf("%s has a non-test caller now: remove it from idleExportAllowlist", key)
		}
	}
	for key := range idleExportAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("idleExportAllowlist names %s, which no longer exists: remove the entry", key)
		}
	}
}
