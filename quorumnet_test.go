package quorumnet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	quorumnet "github.com/quorumnet/quorumnet"
)

// TestPublicAPIPipeline exercises the whole public surface end to end:
// topology → system → placement → evaluation → strategy LP → best
// capacity, the way a downstream user would.
func TestPublicAPIPipeline(t *testing.T) {
	topo := quorumnet.PlanetLab50(quorumnet.DefaultSeed)
	if topo.Size() != 50 {
		t.Fatalf("topology size = %d", topo.Size())
	}

	sys, err := quorumnet.NewGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := quorumnet.OneToOne(topo, sys, quorumnet.PlacementOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsOneToOne() {
		t.Error("OneToOne returned a many-to-one placement")
	}

	e, err := quorumnet.NewEval(topo, sys, f, quorumnet.AlphaForDemand(16000))
	if err != nil {
		t.Fatal(err)
	}
	closest := e.AvgResponseTime(quorumnet.Closest)
	balanced := e.AvgResponseTime(quorumnet.Balanced)
	if closest <= 0 || balanced <= 0 {
		t.Fatalf("non-positive response times: %v, %v", closest, balanced)
	}

	values := quorumnet.SweepValues(sys.OptimalLoad(), 5)
	points, err := quorumnet.UniformCapacitySweep(e, values)
	if err != nil {
		t.Fatal(err)
	}
	best, err := quorumnet.BestSweepPoint(points)
	if err != nil {
		t.Fatal(err)
	}
	// The LP with tuned capacity must beat or match both fixed strategies.
	if best.Response > math.Min(closest, balanced)+1e-6 {
		t.Errorf("LP-optimized %v worse than min(closest %v, balanced %v)",
			best.Response, closest, balanced)
	}
}

func TestPublicAPIProtocol(t *testing.T) {
	topo := quorumnet.PlanetLab50(2)
	sys, err := quorumnet.QUMajority(1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := quorumnet.OneToOne(topo, sys, quorumnet.PlacementOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := quorumnet.RunProtocol(quorumnet.ProtocolConfig{
		Topo:          topo,
		ServerSites:   f.Targets(),
		QuorumSize:    sys.QuorumSize(),
		ClientSites:   []int{0, 10, 20},
		ServiceTimeMS: 1,
		DurationMS:    3000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 || m.AvgResponseMS < m.AvgNetDelayMS {
		t.Errorf("implausible metrics: %+v", m)
	}
}

// TestPublicAPIPlanner drives the staged planner through the deltas the
// replan example uses and checks the incremental contract: a demand-only
// delta re-runs a single stage.
func TestPublicAPIPlanner(t *testing.T) {
	topo := quorumnet.PlanetLab50(quorumnet.DefaultSeed)
	p, err := quorumnet.NewPlanner(topo, quorumnet.PlannerConfig{
		System:   quorumnet.SystemSpec{Family: "grid", Param: 3},
		Strategy: quorumnet.StratLP,
		Demand:   8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Provenance.Cold() || res.LP == nil || res.Response <= 0 || res.Version != 1 {
		t.Fatalf("implausible cold plan: %+v", res)
	}
	if err := p.SetDemand(16000); err != nil {
		t.Fatal(err)
	}
	res, err = p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Provenance.EvalOnly() {
		t.Fatalf("demand delta recomputed %v, want [eval]", res.RecomputedNames())
	}
	if err := p.RemoveSite(p.Site(0).Name); err != nil {
		t.Fatal(err)
	}
	res, err = p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if res.Topology.Size() != 49 {
		t.Fatalf("site removal left %d sites", res.Topology.Size())
	}
}

// TestPublicAPIServeRegistry opens two deployments behind one
// ServeRegistry and checks tenant routing plus the legacy alias.
func TestPublicAPIServeRegistry(t *testing.T) {
	mk := func(param int) *quorumnet.Deployment {
		p, err := quorumnet.NewPlanner(quorumnet.PlanetLab50(quorumnet.DefaultSeed), quorumnet.PlannerConfig{
			System:   quorumnet.SystemSpec{Family: "grid", Param: param},
			Strategy: quorumnet.StratClosest,
			Demand:   8000,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := quorumnet.NewDeployment(p, quorumnet.DeployConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	reg := quorumnet.NewServeRegistry(quorumnet.PlanServerOptions{})
	if _, err := quorumnet.OpenDeployment(reg, "core", mk(3)); err != nil {
		t.Fatal(err)
	}
	edge, err := quorumnet.OpenDeployment(reg, "edge", mk(4))
	if err != nil {
		t.Fatal(err)
	}
	if edge.Name() != "edge" {
		t.Fatalf("tenant name %q, want edge", edge.Name())
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	read := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	legacy, core := read("/v1/plan"), read("/v1/deployments/core/plan")
	if legacy != core {
		t.Fatal("legacy /v1/plan is not byte-identical to the default tenant's plan")
	}
	if read("/v1/deployments/edge/plan") == core {
		t.Fatal("edge tenant served the core plan")
	}
}

// TestFacadeExportsAreExercised pins the façade to the surface its
// callers use. An exported declaration of quorumnet.go stays only if
// the examples or example_test.go refer to one of its
// names as quorumnet.<Name>, or if it appears in the declaration of
// one that stays (NewEval keeps Eval, NewDeltaBatcher keeps
// DeltaPoster). A grouped const or var block is one declaration.
func TestFacadeExportsAreExercised(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "quorumnet.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	var decls []ast.Decl
	for _, d := range facade.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.IMPORT {
			continue
		}
		decls = append(decls, d)
		for _, n := range declNames(d) {
			exported[n] = true
		}
	}

	callers := []string{"example_test.go"}
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			callers = append(callers, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, path := range callers {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "github.com/quorumnet/quorumnet" {
				local = "quorumnet"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local != "" && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	// Keep declarations to a fixed point: a kept declaration keeps every
	// façade name its own declaration mentions.
	kept := make([]bool, len(decls))
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if kept[i] || !anyUsed(declNames(d), used) {
				continue
			}
			kept[i], changed = true, true
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					ast.Inspect(n.X, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok && exported[id.Name] {
							used[id.Name] = true
						}
						return true
					})
					return false
				case *ast.Ident:
					if exported[n.Name] {
						used[n.Name] = true
					}
				}
				return true
			})
		}
	}
	var unused []string
	for i, d := range decls {
		if !kept[i] {
			unused = append(unused, strings.Join(declNames(d), "/"))
		}
	}
	if len(unused) > 0 {
		t.Fatalf("%d façade declarations are used by no example or example_test.go, "+
			"nor by the declaration of one that is:\n\t%s", len(unused), strings.Join(unused, "\n\t"))
	}
}

// declNames lists the names a top-level declaration introduces.
func declNames(d ast.Decl) []string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return []string{d.Name.Name}
	case *ast.GenDecl:
		var names []string
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					names = append(names, n.Name)
				}
			}
		}
		return names
	}
	return nil
}

func anyUsed(names []string, used map[string]bool) bool {
	for _, n := range names {
		if used[n] {
			return true
		}
	}
	return false
}
