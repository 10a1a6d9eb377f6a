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
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"

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

// configSeams are the Config/Options fields that only tests set: each
// lets a test set a wait, or select the reference implementation it
// compares production output against.
var configSeams = map[string]string{
	"fleet.Config.Attempts":                   "retry tests exhaust a shard after one or two attempts",
	"fleet.Config.RetryBackoff":               "the single-worker retry test backs off in milliseconds",
	"fleet.Config.DrainGrace":                 "the late-duplicate test waits for a superseded attempt's result",
	"fleet.Config.ShardTimeout":               "tests bound a hung attempt to a second, or stretch it to show re-dispatch preempts it",
	"fleet.RegistryOptions.HeartbeatInterval": "registry and lease tests beat every few milliseconds",
	"fleet.RegistryOptions.MissedHeartbeats":  "fake-clock tests state the eviction window they advance across",
	"fleet.LeaseOptions.RetryDelay":           "the lease test re-registers in milliseconds",
	"serve.Options.MaxApplyQueue":             "the backpressure test fills a two-deep queue",
	"placement.Options.Search":                "the exhaustive anchor search is the pruned search's reference",
	"strategy.Config.NoAggregate":             "the unaggregated LP is the aggregated LP's reference",
}

// TestConfigFieldsHaveCallers keeps configuration to what programs
// configure. Every exported field of an exported *Config or *Options
// struct under internal/ must be written by some non-test file of the
// module or of bench/, as a composite-literal key or an assignment
// target, matched by field name. Fields with a json tag are a file or
// wire format and are exempt; so are configSeams.
func TestConfigFieldsHaveCallers(t *testing.T) {
	// The walk from the module root takes in bench/, a module of its own.
	fields, written, err := configFieldWrites(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}

	var bad []string
	for key, field := range fields {
		if !written[field] && configSeams[key] == "" {
			bad = append(bad, key)
		}
	}
	for key := range configSeams {
		if _, ok := fields[key]; !ok {
			bad = append(bad, key+" (allowlisted, but no such field)")
		} else if written[fields[key]] {
			bad = append(bad, key+" (allowlisted, but a program sets it)")
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Fatalf("%d Config/Options fields disagree with configSeams; make a field no program "+
			"sets a constant or, if tests need it, a configSeams entry with the reason:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

// configFieldWrites scans the non-test .go files of fsys. It returns
// every exported, non-json-tagged field of an exported *Config or
// *Options struct under internal/, keyed "pkg.Type.Field" with the
// field's name as value, and the set of names written as a
// composite-literal key or an assignment target.
func configFieldWrites(fsys fs.FS) (fields map[string]string, written map[string]bool, err error) {
	fields = map[string]string{}
	written = map[string]bool{}
	fset := token.NewFileSet()
	err = fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && name != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					written[id.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel.Sel.Name] = true
					}
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				typ := n.Name.Name
				pkg, internal := strings.CutPrefix(path.Dir(name), "internal/")
				if !ok || !internal || !ast.IsExported(typ) ||
					!(strings.HasSuffix(typ, "Config") || strings.HasSuffix(typ, "Options")) {
					return true
				}
				for _, fld := range st.Fields.List {
					if fld.Tag != nil && strings.Contains(fld.Tag.Value, `json:"`) {
						continue
					}
					for _, id := range fld.Names {
						if id.IsExported() {
							fields[pkg+"."+typ+"."+id.Name] = id.Name
						}
					}
				}
			}
			return true
		})
		return nil
	})
	return fields, written, err
}

// TestConfigFieldWritesScan pins what the guard counts: a field is
// declared only by an exported *Config/*Options struct under internal/
// and only when exported and untagged; a write counts from a non-test
// file, as a literal key or an assignment to a selector.
func TestConfigFieldWritesScan(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/knob/knob.go": {Data: []byte(`package knob

type DialConfig struct {
	Literal  int
	Assigned int
	TestOnly int
	Wire     int ` + "`json:\"wire\"`" + `
	hidden   int
}

type DialState struct{ Level int }

type dialOptions struct{ Depth int }
`)},
		"cmd/knob/main.go": {Data: []byte(`package main

import "example/internal/knob"

func main() {
	c := knob.DialConfig{Literal: 1}
	c.Assigned = 2
	Local := 3
	_, _ = c, Local
}
`)},
		"cmd/knob/main_test.go": {Data: []byte(`package main

import "example/internal/knob"

var _ = knob.DialConfig{TestOnly: 1}
`)},
		"internal/knob/testdata/fixture.go": {Data: []byte(`package fixture

var _ = struct{ Level int }{Level: 1}
`)},
	}
	fields, written, err := configFieldWrites(fsys)
	if err != nil {
		t.Fatal(err)
	}
	wantFields := map[string]string{
		"knob.DialConfig.Literal":  "Literal",
		"knob.DialConfig.Assigned": "Assigned",
		"knob.DialConfig.TestOnly": "TestOnly",
	}
	if len(fields) != len(wantFields) {
		t.Errorf("fields %v, want %v", fields, wantFields)
	}
	for k, v := range wantFields {
		if fields[k] != v {
			t.Errorf("fields[%q] = %q, want %q", k, fields[k], v)
		}
	}
	for _, name := range []string{"Literal", "Assigned"} {
		if !written[name] {
			t.Errorf("%s not counted as written", name)
		}
	}
	for _, name := range []string{"TestOnly", "Level", "Local"} {
		if written[name] {
			t.Errorf("%s counted as written", name)
		}
	}
}
