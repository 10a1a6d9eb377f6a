package quorumnet_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"reflect"
	"sort"
	"strings"
	"sync"
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
	if len(f.Support()) != f.UniverseSize() {
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

// The three caller guards below read one type-checked scan of the
// module: every non-test .go file under the root, bench/, cmd/ and
// examples/ included. A use is an identifier the type checker resolves
// to an object, so a field or method is told apart from another of the
// same name.
var moduleScan = sync.OnceValues(func() (*modScan, error) { return scanModule(os.DirFS(".")) })

func loadModuleScan(t *testing.T) *modScan {
	t.Helper()
	s, err := moduleScan()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFacadeExportsAreExercised pins the façade to the surface its
// callers use. An exported declaration of the root package stays only
// if the examples or example_test.go use one of its names, or if the
// declaration of one that stays does (NewEval keeps Eval,
// NewDeltaBatcher keeps DeltaPoster). A grouped const or var block is
// one declaration.
func TestFacadeExportsAreExercised(t *testing.T) {
	s := loadModuleScan(t)
	root := s.pkgs[s.module]
	used := map[types.Object]bool{}
	for path, info := range s.infos {
		if strings.HasPrefix(path, s.module+"/examples/") {
			addUses(used, info, root)
		}
	}
	ex, err := parser.ParseFile(s.fset, "example_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exInfo := newInfo()
	if _, err := (&types.Config{Importer: s}).Check(s.module+"_test", s.fset, []*ast.File{ex}, exInfo); err != nil {
		t.Fatal(err)
	}
	addUses(used, exInfo, root)

	// Keep declarations to a fixed point: a kept declaration keeps every
	// façade name its own declaration uses.
	info := s.infos[s.module]
	var decls []ast.Decl
	for _, f := range s.files[s.module] {
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); !ok || g.Tok != token.IMPORT {
				decls = append(decls, d)
			}
		}
	}
	kept := make([]bool, len(decls))
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if kept[i] || !anyUsed(declObjects(d, info), used) {
				continue
			}
			kept[i], changed = true, true
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil && info.Uses[id].Parent() == root.Scope() {
					used[info.Uses[id]] = true
				}
				return true
			})
		}
	}
	var unused []string
	for i, d := range decls {
		if !kept[i] {
			var names []string
			for _, obj := range declObjects(d, info) {
				names = append(names, obj.Name())
			}
			unused = append(unused, strings.Join(names, "/"))
		}
	}
	if len(unused) > 0 {
		t.Fatalf("%d façade declarations are used by no example or example_test.go, "+
			"nor by the declaration of one that is:\n\t%s", len(unused), strings.Join(unused, "\n\t"))
	}
}

// addUses adds to used every package-level object of pkg that info
// resolves an identifier to.
func addUses(used map[types.Object]bool, info *types.Info, pkg *types.Package) {
	for _, obj := range info.Uses {
		if obj.Parent() == pkg.Scope() {
			used[obj] = true
		}
	}
}

// declObjects lists the objects a top-level declaration defines.
func declObjects(d ast.Decl, info *types.Info) []types.Object {
	var idents []*ast.Ident
	switch d := d.(type) {
	case *ast.FuncDecl:
		idents = append(idents, d.Name)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				idents = append(idents, s.Name)
			case *ast.ValueSpec:
				idents = append(idents, s.Names...)
			}
		}
	}
	var objs []types.Object
	for _, id := range idents {
		if obj := info.Defs[id]; obj != nil {
			objs = append(objs, obj)
		}
	}
	return objs
}

func anyUsed(objs []types.Object, used map[types.Object]bool) bool {
	for _, obj := range objs {
		if used[obj] {
			return true
		}
	}
	return false
}

// configSeams are the Config/Options fields that only tests set: each
// lets a test set a wait or a fake clock, or select the reference
// implementation it compares production output against.
var configSeams = map[string]string{
	"fleet.Config.Attempts":                   "retry tests exhaust a shard after one or two attempts",
	"fleet.Config.RetryBackoff":               "the single-worker retry test backs off in milliseconds",
	"fleet.Config.ShardTimeout":               "tests bound a hung attempt to a second, or stretch it to show re-dispatch preempts it",
	"fleet.RegistryOptions.HeartbeatInterval": "registry and lease tests beat every few milliseconds",
	"fleet.RegistryOptions.Now":               "fault-injection tests expire workers by advancing a fake clock",
	"fleet.StandbyOptions.Now":                "standby tests trigger a takeover by advancing a fake clock",
	"fleet.LeaseOptions.RetryDelay":           "the lease test re-registers in milliseconds",
	"serve.Options.MaxApplyQueue":             "the backpressure test fills a two-deep queue",
	"placement.Options.Search":                "the exhaustive anchor search is the pruned search's reference",
	"strategy.Config.NoAggregate":             "the unaggregated LP is the aggregated LP's reference",
	"strategy.Config.Solver":                  "dense is colgen's reference",
}

// TestConfigFieldsHaveCallers keeps configuration to what programs
// configure. Every exported field of an exported *Config or *Options
// struct under internal/ must be written by some non-test file, as a
// composite-literal key or an assignment target. Fields with a json tag
// other than "-" are a file or wire format and are exempt; so are
// configSeams.
func TestConfigFieldsHaveCallers(t *testing.T) {
	bad := loadModuleScan(t).unwritten(configSeams)
	if len(bad) > 0 {
		t.Fatalf("%d Config/Options fields disagree with configSeams; make a field no program "+
			"sets a constant or, if tests need it, a configSeams entry with the reason:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

// exportSeams are the internal exports that only tests use. A key is
// "pkg.Name", "pkg.Type.Method" or a whole package, pkg being the path
// below internal/.
var exportSeams = map[string]string{
	"graph.Graph.ShortestFrom":          "the Dijkstra reference the closure tests check every all-pairs variant against",
	"faults.ThresholdAvailabilityExact": "the exact enumeration the availability tests check the threshold formula against",
	"placement.SearchAuto":              "the zero value of Search; programs select it by leaving Search unset",
	"par/partest":                       "test support: pins GOMAXPROCS for par.For's width tests",
}

// TestInternalExportsHaveCallers keeps internal/ to what programs use:
// every exported package-level identifier of a package under internal/,
// and every exported method of one of its types, must be used by some
// non-test file, or be an exportSeams entry. A method whose name is in
// some interface's method set (String, Close, ServeHTTP, …) may be
// called through that interface and is exempt.
func TestInternalExportsHaveCallers(t *testing.T) {
	bad := loadModuleScan(t).unusedExports(exportSeams)
	if len(bad) > 0 {
		t.Fatalf("%d internal exports disagree with exportSeams; delete an export no program "+
			"uses, move test support into a _test.go file or, if tests need it, add an "+
			"exportSeams entry with the reason:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
	}
}

// modScan is the type-checked non-test code of the Go modules under
// the root of an fs.FS. It is the importer of its own packages, and
// falls back to the gc export data for the standard library.
type modScan struct {
	fset   *token.FileSet
	module string                    // import path of the root module
	files  map[string][]*ast.File    // import path → non-test files
	pkgs   map[string]*types.Package // import path → checked package
	infos  map[string]*types.Info    // import path → uses and defs
	std    types.Importer
}

func scanModule(fsys fs.FS) (*modScan, error) {
	s := &modScan{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", nil)
	importPath := map[string]string{} // directory → import path
	err := fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			importPath[name] = importPath[path.Dir(name)] + "/" + d.Name()
			if mod, err := fs.ReadFile(fsys, path.Join(name, "go.mod")); err == nil {
				importPath[name] = moduleLine(mod)
			}
			if name == "." {
				s.module = importPath[name]
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(s.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p := importPath[path.Dir(name)]
		s.files[p] = append(s.files[p], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range s.files {
		if _, err := s.Import(p); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// moduleLine returns the module path a go.mod declares.
func moduleLine(mod []byte) string {
	for _, line := range strings.Split(string(mod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(p)
		}
	}
	return ""
}

func newInfo() *types.Info {
	return &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

// Import type-checks a package of the scan once, and defers any other
// path to the standard library's export data.
func (s *modScan) Import(p string) (*types.Package, error) {
	if pkg := s.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	files, ok := s.files[p]
	if !ok {
		return s.std.Import(p)
	}
	info := newInfo()
	pkg, err := (&types.Config{Importer: s}).Check(p, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[p], s.infos[p] = pkg, info
	return pkg, nil
}

// internal returns the checked packages under the root module's
// internal/, keyed by their path below it.
func (s *modScan) internal() map[string]*types.Package {
	out := map[string]*types.Package{}
	for p, pkg := range s.pkgs {
		if rel, ok := strings.CutPrefix(p, s.module+"/internal/"); ok {
			out[rel] = pkg
		}
	}
	return out
}

// origin maps an object of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unwritten lists the *Config/*Options fields that no non-test file
// writes, as a composite-literal key or an assignment to a selector,
// and that are not seams; and the seams that name no such field.
func (s *modScan) unwritten(seams map[string]string) []string {
	written := map[types.Object]bool{}
	for p, files := range s.files {
		info := s.infos[p]
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[origin(info.Uses[id])] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							written[origin(info.Uses[sel.Sel])] = true
						}
					}
				}
				return true
			})
		}
	}
	fields := map[string]bool{}
	for rel, pkg := range s.internal() {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				fld := st.Field(i)
				// json:"-" says the field is not wire format.
				if tag := reflect.StructTag(st.Tag(i)).Get("json"); fld.Exported() && (tag == "" || tag == "-") {
					fields[rel+"."+name+"."+fld.Name()] = written[fld]
				}
			}
		}
	}
	return disagreements(fields, seams, nil)
}

// unusedExports lists the exported package-level identifiers and
// methods under internal/ that no non-test file uses and that are not
// seams, and the seams that name nothing or something a program uses.
func (s *modScan) unusedExports(seams map[string]string) []string {
	used := map[types.Object]bool{}
	// error's method is in the universe scope, which no package reaches.
	ifaceMethods := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for p, info := range s.infos {
		walk(s.pkgs[p])
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}

	exports := map[string]bool{} // key → used
	pkgOf := map[string]string{}
	for rel, pkg := range s.internal() {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			exports[rel+"."+name], pkgOf[rel+"."+name] = used[obj], rel
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(named) {
				continue
			}
			for i := range named.NumMethods() {
				m := named.Method(i)
				if m.Exported() && !ifaceMethods[m.Name()] {
					key := rel + "." + name + "." + m.Name()
					exports[key], pkgOf[key] = used[m], rel
				}
			}
		}
	}
	return disagreements(exports, seams, pkgOf)
}

// disagreements lists each key no program uses that seams does not
// name, and each seam that names nothing unused. A seam may name a
// whole package by its key in pkgOf.
func disagreements(used map[string]bool, seams map[string]string, pkgOf map[string]string) []string {
	var bad []string
	needed := map[string]bool{}
	for key, u := range used {
		seam := key
		if _, ok := seams[key]; !ok {
			seam = pkgOf[key]
		}
		if _, ok := seams[seam]; ok {
			needed[seam] = needed[seam] || !u
		} else if !u {
			bad = append(bad, key)
		}
	}
	for seam := range seams {
		if !needed[seam] {
			bad = append(bad, seam+" (a seam, but it names nothing unused)")
		}
	}
	sort.Strings(bad)
	return bad
}

// TestConfigFieldWritesScan pins what the guards count on a planted
// module: a field is declared only by an exported *Config/*Options
// struct under internal/ and only when exported and untagged or tagged
// json:"-"; a write
// or a use counts only from a non-test file, and only for the object it
// resolves to, not for a field of the same name elsewhere; a method
// named in some interface is exempt; testdata/ is skipped; a seam that
// names nothing unused is reported.
func TestConfigFieldWritesScan(t *testing.T) {
	fsys := fstest.MapFS{
		"go.mod": {Data: []byte("module example\n\ngo 1.24\n")},
		"internal/knob/knob.go": {Data: []byte(`package knob

type DialConfig struct {
	Literal  int
	Assigned int
	TestOnly int
	Wire     int ` + "`json:\"wire\"`" + `
	Unwired  int ` + "`json:\"-\"`" + `
	hidden   int
}

type dialOptions struct{ Depth int }

type Dial struct{ cfg DialConfig }

func New(c DialConfig) Dial  { return Dial{cfg: c} }
func (Dial) Turn()           {}
func (Dial) Unturned()       {}
func (Dial) String() string  { return "" }
func Unused()                {}
`)},
		"cmd/knob/main.go": {Data: []byte(`package main

import "example/internal/knob"

type local struct{ TestOnly int }

type stringer interface{ String() string }

func main() {
	c := knob.DialConfig{Literal: 1}
	c.Assigned = 2
	knob.New(c).Turn()
	_ = local{TestOnly: 3}
}
`)},
		"cmd/knob/main_test.go": {Data: []byte(`package main

import "example/internal/knob"

var _ = knob.DialConfig{TestOnly: 1}

func init() { knob.Unused(); knob.New(knob.DialConfig{}).Unturned() }
`)},
		"internal/knob/testdata/fixture.go": {Data: []byte(`package fixture

var _ = undefined
`)},
	}
	s, err := scanModule(fsys)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		got, want []string
	}{
		{"fields", s.unwritten(nil), []string{"knob.DialConfig.TestOnly", "knob.DialConfig.Unwired"}},
		{"field seams", s.unwritten(map[string]string{"knob.DialConfig.TestOnly": "r", "knob.DialConfig.Unwired": "r", "knob.DialConfig.Literal": "r"}),
			[]string{"knob.DialConfig.Literal (a seam, but it names nothing unused)"}},
		{"exports", s.unusedExports(nil), []string{"knob.Dial.Unturned", "knob.Unused"}},
		{"export seams", s.unusedExports(map[string]string{"knob": "r"}), nil},
	} {
		if strings.Join(tc.got, "|") != strings.Join(tc.want, "|") {
			t.Errorf("%s: got %q, want %q", tc.name, tc.got, tc.want)
		}
	}
}
