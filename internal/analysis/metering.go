package analysis

import (
	"go/ast"
	"strings"
)

// meteredPackages are the strategy packages whose cross-server data
// movement must be bit-accounted: every value that travels between model
// servers has to pass through an Emitter inside a Cluster.Round, where
// RoundStats charges it. Writing into an Inbox directly, walking or
// restaging an Emitter's staging the way a transport does, invoking the
// delivery kernel by hand, constructing engine delivery machinery from a
// composite literal, or seeding (Cluster.Seed*, the free initial placement)
// from inside a round function would all move data the Report never meters.
var meteredPackages = []string{
	"internal/core",
	"internal/skew",
	"internal/multiround",
	"internal/aggregate",
}

// Metering enforces the bit-accounting boundary in strategy packages. The
// engine itself and internal/transport legitimately touch these APIs (they
// ARE the accounting and delivery layer); the packages above must not.
var Metering = &Analyzer{
	Name: "metering",
	Doc:  "strategy packages must move cross-server data through engine.Emitter, never by direct inbox/delivery writes",
	Run:  runMetering,
}

func runMetering(pass *Pass) error {
	metered := false
	for _, p := range meteredPackages {
		if pathHasSuffix(pass.Pkg.Path(), p) {
			metered = true
			break
		}
	}
	if !metered {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				f := calleeFunc(pass.TypesInfo, v)
				if f == nil {
					return true
				}
				pkgPath, typeName := recvTypeName(f)
				if typeName == "" {
					pkgPath = funcPkgPath(f)
				}
				if !pathHasSuffix(pkgPath, "internal/engine") {
					return true
				}
				switch {
				case typeName == "Emitter" && f.Name() == "WalkStaged":
					pass.Reportf(v.Pos(),
						"Emitter.WalkStaged is the transport-facing walk of a sender's staging; strategies must let Cluster.Round deliver")
				case typeName == "Emitter" && (f.Name() == "Restage" || strings.HasPrefix(f.Name(), "Stage")):
					pass.Reportf(v.Pos(),
						"Emitter.%s is a transport's receive-side restaging and bypasses bit accounting; emit through engine.Emitter inside Cluster.Round", f.Name())
				case typeName == "" && f.Name() == "DeliverLocal":
					pass.Reportf(v.Pos(),
						"calling engine.DeliverLocal directly skips RoundStats charging; use Cluster.Round")
				case typeName == "Cluster" && f.Name() == "Round":
					reportSeedsInRound(pass, v)
				}
			case *ast.CompositeLit:
				t := pass.TypeOf(v)
				switch named := namedTypeName(t); named {
				case "Inbox", "Emitter", "DeliveryRound":
					if pathHasSuffix(typePkgPath(t), "internal/engine") {
						pass.Reportf(v.Pos(),
							"constructing engine.%s directly creates unmetered delivery state; obtain it from a Cluster", named)
					}
				}
			}
			return true
		})
	}
	return nil
}

// reportSeedsInRound flags Cluster.Seed* calls written inside a function
// literal handed to Cluster.Round. Seeding is free because it models the
// input's initial placement; from inside a round it would hand tuples to
// another server at no charge, which is exactly what EmitTuple, EmitBatch,
// EmitFanout and the block form EmitRouted exist to bill.
func reportSeedsInRound(pass *Pass, round *ast.CallExpr) {
	for _, arg := range round.Args {
		lit, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.TypesInfo, call)
			pkgPath, typeName := recvTypeName(f)
			if typeName == "Cluster" && strings.HasPrefix(f.Name(), "Seed") && pathHasSuffix(pkgPath, "internal/engine") {
				pass.Reportf(call.Pos(),
					"Cluster.%s inside a round function moves tuples between servers without charging them; seed before the first round and emit through the round's engine.Emitter",
					f.Name())
			}
			return true
		})
	}
}
