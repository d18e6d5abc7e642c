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

	"mpcquery/internal/analysis"
)

// TestStrategyEntryPointSurface freezes the exported Run*/Execute*/Detect*
// functions and methods of the three strategy-family packages: one full form
// per family (the one strategy.go and benchmark/ call), a zero-option
// convenience only where non-test code calls it, and the two other-model
// runs of core. core's are adapters that run a Plan as skew.GridPlan through
// skew's one router (TestOneRouter), kept because benchmark/ and the
// experiments call them; the sampled star has no run of its own, its
// strategy chaining the statistics round and the generic planner. It also
// freezes what they return: every strategy run reports
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
			"RunGenericPlannedNet", "RunStarPlannedNet",
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
		"WithStrategy", "WithStreaming", "WithTrace",
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
	eachStrategyCall(t, func(path string, pos token.Position, name string) {
		if path == "internal/core/capped.go" {
			return
		}
		if forbidden[name] {
			t.Errorf("%s calls %s: use the localjoin computation phase — do not add a second one", pos, name)
		}
		if name == "Inbox" && !inboxReads[path] {
			t.Errorf("%s calls .Inbox(: a rank holds only its owned servers' inboxes — read inside the phase", pos)
		}
	})
}

// TestOneRouter keeps every data round of a join on skew's one router,
// (*GenericPlan).Shuffle, which runs HyperCube grids (GridPlan), heavy/light
// layouts and multi-round plan nodes alike: no other non-test file of core,
// skew or multiround routes a tuple (EmitRouted), draws a hash family
// (hashing.NewFamily) or runs a round (Cluster.Round). skew/stats.go runs
// the sampling round, and multiround/cc.go the connected-components rounds,
// which are not joins.
func TestOneRouter(t *testing.T) {
	const router = "internal/skew/generic.go"
	allowed := map[string]map[string]bool{
		"EmitRouted":        {router: true},
		"hashing.NewFamily": {router: true, "internal/multiround/cc.go": true},
		"Round":             {router: true, "internal/skew/stats.go": true, "internal/multiround/cc.go": true},
	}
	eachStrategyCall(t, func(path string, pos token.Position, name string) {
		if files, ok := allowed[name]; ok && !files[path] {
			t.Errorf("%s calls %s: route through (*skew.GenericPlan).Shuffle — do not add a second router", pos, name)
		}
	})
}

// eachStrategyCall calls f for every method or package-qualified call in the
// non-test files of core, skew and multiround, with the file's slash path
// and the called name, prefixed "engine." or "hashing." for those packages'
// functions.
func eachStrategyCall(t *testing.T, f func(path string, pos token.Position, name string)) {
	t.Helper()
	for _, dir := range []string{"internal/core", "internal/skew", "internal/multiround"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nonTest, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
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
					if x, ok := sel.X.(*ast.Ident); ok && (x.Name == "engine" || x.Name == "hashing") {
						name = x.Name + "." + name
					}
					f(filepath.ToSlash(path), fset.Position(call.Pos()), name)
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
	"internal/obs.ClusterTrace.Rounds":            "tracer tests read a cluster's observed rounds",
	"internal/obs.Histogram.Min":                  "registry tests",
	"internal/obs.Trace.Structure":                "trace determinism tests",
	"internal/packing.VertexCover":                "packing tests check τ* against the dual LP",
	"internal/skew.GenericPlan.HeavyHitters":      "generic-plan tests count the planned heavy values",
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
// Every exported function, method and interface method declared in a
// non-test file under internal/ (analysistest, the analyzers' test harness,
// aside) must be referenced by a non-test file somewhere in the repository,
// benchmark/ included, or appear in idleExportAllowlist with its reason.
// References are resolved by the type checker, so a selector of the same
// name on another type does not count. A method also counts as used when it
// implements an interface method that a non-test file references, or that
// an interface declared in a non-test file holds (the interface method is
// then checked itself), or fmt.Stringer or error, which the standard library
// calls. *ForTest hooks exist for tests and are exempt. An allowlisted name
// that gains a caller or disappears must leave the list.
func TestNoIdleInternalExports(t *testing.T) {
	pkgs, err := analysis.LoadPackages(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := analysis.LoadPackages("benchmark", ".")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{} // funcKey of every referenced function and method
	// Interfaces by method name: referenced or declared interface methods,
	// and the two the standard library calls.
	str := types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false))
	ifaces := map[string][]*types.Interface{
		"String": {types.NewInterfaceType([]*types.Func{str}, nil).Complete()},
		"Error":  {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
	addIface := func(fn *types.Func) {
		if iface, ok := recvType(fn).Underlying().(*types.Interface); ok {
			ifaces[fn.Name()] = append(ifaces[fn.Name()], iface)
		}
	}
	decls := map[string]*types.Func{} // "<dir>.Func" or "<dir>.Type.Method"
	for _, p := range append(pkgs, bench...) {
		for _, obj := range p.TypesInfo.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[funcKey(fn)] = true
				addIface(fn)
			}
		}
		dir := strings.TrimPrefix(p.ImportPath, "mpcquery/")
		internal := strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "internal/analysis/analysistest")
		for _, obj := range p.TypesInfo.Defs {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			addIface(fn)
			if internal && fn.Exported() && !strings.HasSuffix(fn.Name(), "ForTest") {
				decls[strings.TrimPrefix(funcKey(fn), "mpcquery/")] = fn
			}
		}
	}
	keys := make([]string, 0, len(decls))
	for key := range decls {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		_, allowed := idleExportAllowlist[key]
		switch isUsed := used[funcKey(decls[key])] || implementsAny(decls[key], ifaces[decls[key].Name()]); {
		case !isUsed && !allowed:
			t.Errorf("%s is exported but only tests call it: delete it, or add it to idleExportAllowlist with a reason", key)
		case isUsed && allowed:
			t.Errorf("%s has a non-test caller now: remove it from idleExportAllowlist", key)
		}
	}
	for key := range idleExportAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("idleExportAllowlist names %s, which no longer exists: remove the entry", key)
		}
	}
}

// recvType is the receiver's type of a method, pointer removed, or nil for
// a function.
func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return types.Typ[types.Invalid]
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// funcKey names a function "<import path>.Func" and a method
// "<import path>.Type.Method", the same in every type-checking universe.
func funcKey(fn *types.Func) string {
	key := "."
	if fn.Pkg() != nil { // nil for error.Error
		key = fn.Pkg().Path() + key
	}
	if named, ok := types.Unalias(recvType(fn)).(*types.Named); ok {
		key += named.Origin().Obj().Name() + "."
	}
	return key + fn.Name()
}

// implementsAny reports whether fn is a concrete method of a type that
// implements one of ifaces. Method sets are compared by name and by the
// text of the parameter and result types, since the two loads give one
// package two identities.
func implementsAny(fn *types.Func, ifaces []*types.Interface) bool {
	if fn.Type().(*types.Signature).Recv() == nil || types.IsInterface(recvType(fn)) {
		return false
	}
	have := map[string]string{}
	ms := types.NewMethodSet(types.NewPointer(recvType(fn)))
	for i := range ms.Len() {
		m := ms.At(i).Obj()
		have[m.Name()] = sigText(m.Type().(*types.Signature))
	}
	for _, iface := range ifaces {
		all := true
		for i := range iface.NumMethods() {
			m := iface.Method(i)
			all = all && have[m.Name()] == sigText(m.Type().(*types.Signature))
		}
		if all {
			return true
		}
	}
	return false
}

// sigText renders a signature's parameter and result types, names left out.
func sigText(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := range tuple.Len() {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString("->")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
