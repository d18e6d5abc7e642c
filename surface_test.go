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
			"RunPlanInputServers", "RunPlanWithCapNet", "RunWithSelfJoins",
		},
		"internal/skew": {
			"RunGenericPlannedNet", "RunStar", "RunStarPlannedNet", "RunStarSampled",
			"RunTriangle", "RunTrianglePlannedNet", "StatsSpec.Run", "StatsSpec.RunNet",
		},
		"internal/multiround": {
			"Execute", "ExecuteAggregateCapMemoNet", "ExecuteSkewAwareCapMemoNet",
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
