package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/quorumnet/quorumnet/internal/par/partest"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// smallSynth is a compact topology spec so engine tests stay fast.
func smallSynth() TopologySpec {
	return TopologySpec{
		Source: "synth",
		Seed:   7,
		Synth: &topology.GenConfig{
			Name:      "scenario-test-15",
			Inflation: 1.4,
			Regions: []topology.RegionSpec{
				{Name: "west", Count: 5, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
				{Name: "east", Count: 5, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
				{Name: "eu", Count: 5, LatMin: 44, LatMax: 55, LonMin: -2, LonMax: 15, AccessMin: 1, AccessMax: 4},
			},
		},
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() Spec {
		return Spec{
			Name:       "t",
			Kind:       KindEval,
			Topology:   TopologySpec{Source: "planetlab50"},
			Systems:    []SystemAxis{{Family: "grid", Params: []int{3}}},
			Demands:    []float64{0},
			Strategies: []string{"closest"},
			Measures:   []string{"response"},
		}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"missing name", func(s *Spec) { s.Name = "" }},
		{"missing kind", func(s *Spec) { s.Kind = "" }},
		{"unknown kind", func(s *Spec) { s.Kind = "banana" }},
		{"missing topology", func(s *Spec) { s.Topology = TopologySpec{} }},
		{"unknown topology", func(s *Spec) { s.Topology.Source = "mars" }},
		{"file without path", func(s *Spec) { s.Topology = TopologySpec{Source: "file"} }},
		{"synth without config", func(s *Spec) { s.Topology = TopologySpec{Source: "synth"} }},
		{"unknown family", func(s *Spec) { s.Systems[0].Family = "hexagon" }},
		{"unknown strategy", func(s *Spec) { s.Strategies = []string{"psychic"} }},
		{"unknown measure", func(s *Spec) { s.Measures = []string{"vibes"} }},
		{"unknown algorithm", func(s *Spec) { s.Placement.Algorithm = "scatter" }},
		{"eval without demands", func(s *Spec) { s.Demands = nil }},
		{"eval without systems", func(s *Spec) { s.Systems = nil }},
		{"sweep without points", func(s *Spec) { s.Kind = KindSweep; s.Sweep = &SweepSpec{} }},
		{"sweep bad variant", func(s *Spec) {
			s.Kind = KindSweep
			s.Sweep = &SweepSpec{Points: 2, Variants: []string{"diagonal"}}
		}},
		{"iterate without spec", func(s *Spec) { s.Kind = KindIterate }},
		{"protocol without grid", func(s *Spec) { s.Kind = KindProtocol; s.Protocol = &ProtocolSpec{} }},
		{"timeline without steps", func(s *Spec) { s.Kind = KindTimeline }},
		{"timeline unlabeled step", func(s *Spec) {
			s.Kind = KindTimeline
			s.Timeline = []Step{{}}
		}},
		{"timeline bad factor", func(s *Spec) {
			s.Kind = KindTimeline
			s.Timeline = []Step{{Label: "x", ScaleRTT: &ScaleRTTStep{Factor: -1}}}
		}},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
	s := base()
	if err := s.Validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
}

// TestValidateRowColumns: each kind takes only the row columns its rows
// can carry — eval system/param/universe, sweep universe/capacity,
// protocol t/universe/clients — and iterate and timeline, whose rows
// have fixed columns, take none. A misspelt column is refused before
// any point runs.
func TestValidateRowColumns(t *testing.T) {
	spec := func(kind Kind, cols ...string) Spec {
		s := Spec{
			Name:       "t",
			Kind:       kind,
			Topology:   TopologySpec{Source: "planetlab50"},
			Systems:    []SystemAxis{{Family: "grid", Params: []int{3}}},
			RowColumns: cols,
		}
		switch kind {
		case KindEval:
			s.Demands, s.Strategies, s.Measures = []float64{0}, []string{"closest"}, []string{"response"}
		case KindSweep:
			s.Sweep = &SweepSpec{Points: 2}
		case KindProtocol:
			s.Protocol = &ProtocolSpec{Ts: []int{1}, PerSite: []int{1}}
		case KindIterate:
			s.Iterate = &IterateSpec{Points: 2}
		case KindTimeline:
			s.Timeline = []Step{{Label: "x", ScaleRTT: &ScaleRTTStep{Factor: 2}}}
		}
		return s
	}
	for _, tc := range []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"eval default", spec(KindEval), true},
		{"eval all", spec(KindEval, "system", "param", "universe"), true},
		{"eval reordered", spec(KindEval, "universe", "system"), true},
		{"eval misspelt", spec(KindEval, "universe", "sytem"), false},
		{"eval capacity", spec(KindEval, "capacity"), false},
		{"sweep all", spec(KindSweep, "universe", "capacity"), true},
		{"sweep system", spec(KindSweep, "system"), false},
		{"protocol all", spec(KindProtocol, "t", "universe", "clients"), true},
		{"protocol capacity", spec(KindProtocol, "capacity"), false},
		{"iterate default", spec(KindIterate), true},
		{"iterate any", spec(KindIterate, "capacity"), false},
		{"timeline default", spec(KindTimeline), true},
		{"timeline any", spec(KindTimeline, "universe"), false},
	} {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: row_columns %q accepted", tc.name, tc.spec.RowColumns)
		}
	}
}

// TestLibraryJSONRoundTrip checks every built-in scenario survives the
// JSON encode → Load cycle unchanged — the same path quorumbench uses
// for user spec files.
func TestLibraryJSONRoundTrip(t *testing.T) {
	for _, spec := range Library() {
		// Load rejects names colliding with the library itself, so the
		// round trip travels under a fresh name.
		spec.Name += "-roundtrip"
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(*got, spec) {
			t.Errorf("%s: round trip changed the spec:\n  in  %+v\n  out %+v", spec.Name, spec, *got)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		`{"name":"x","kind":"eval","topology":{"source":"planetlab50"},"frobnicate":1}`,
		// Pool width is not configuration: GOMAXPROCS bounds it.
		`{"name":"x","kind":"eval","topology":{"source":"planetlab50"},"workers":2}`,
		`{"name":"x","kind":"eval","topology":{"source":"synth","synth":{"as":{"sites":20,"workers":2}}}}`,
		// The access-LP solver is chosen by problem size, not by a spec.
		`{"name":"x","kind":"eval","topology":{"source":"planetlab50"},"solver":"colgen"}`,
	} {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Fatalf("unknown field accepted: %s", doc)
		}
	}
}

// TestEvalWorkerIndependence runs the same eval spec serially and at
// wider pool widths; the tables must match byte for byte.
func TestEvalWorkerIndependence(t *testing.T) {
	mk := func() Spec {
		return Spec{
			Name:       "worker-independence",
			Kind:       KindEval,
			Topology:   smallSynth(),
			Systems:    []SystemAxis{{Family: "singleton"}, {Family: "grid", Params: []int{2, 3}}, {Family: "majority", Params: []int{1, 2}}},
			Demands:    []float64{0, 4000},
			Strategies: []string{"closest", "balanced"},
			Measures:   []string{"response"},
		}
	}
	var tables []*Table
	for _, width := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		partest.SetGOMAXPROCS(t, width)
		spec := mk()
		tb, err := Run(&spec, RunConfig{Reproducible: true})
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tb)
	}
	for i := 1; i < len(tables); i++ {
		if !reflect.DeepEqual(tables[0].Rows, tables[i].Rows) {
			t.Fatalf("pool width changed rows:\n%v\nvs\n%v", tables[0].Rows, tables[i].Rows)
		}
	}
	if len(tables[0].Rows) != 5 {
		t.Fatalf("expected 5 rows (singleton + 2 grids + 2 majorities), got %d", len(tables[0].Rows))
	}
}

// TestEvalFaults injects a regional failure: the singleton placed inside
// the region dies ("down") while the grid survives with degraded delay.
func TestEvalFaults(t *testing.T) {
	spec := Spec{
		Name:       "faults",
		Kind:       KindEval,
		Topology:   smallSynth(),
		Systems:    []SystemAxis{{Family: "grid", Params: []int{3}}},
		Demands:    []float64{0},
		Strategies: []string{"closest"},
		Measures:   []string{"response"},
		Faults:     &FaultSpec{WorstCase: 1},
	}
	withFault, err := Run(&spec, RunConfig{Reproducible: true})
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = nil
	spec.Name = "no-faults"
	clean, err := Run(&spec, RunConfig{Reproducible: true})
	if err != nil {
		t.Fatal(err)
	}
	vf, err := cellOf(withFault, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := cellOf(clean, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if vf < vc {
		t.Errorf("worst-case failure improved response: %v < %v", vf, vc)
	}

	// Killing a whole region of a 15-site topology under a 3×3 grid can
	// still leave quorums; killing every region must not.
	spec.Faults = &FaultSpec{Region: "west"}
	spec.Name = "region-faults"
	if _, err := Run(&spec, RunConfig{Reproducible: true}); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineLibrary executes every built-in timeline workload end to
// end and checks the replanned column matches each scenario's story
// (the library's parameter studies have their own sharding tests).
func TestTimelineLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full timelines")
	}
	for _, spec := range Library() {
		if spec.Kind != KindTimeline {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tb, err := Run(&spec, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) != len(spec.Timeline)+1 {
				t.Fatalf("%d rows for %d steps", len(tb.Rows), len(spec.Timeline))
			}
			repCol, err := colOf(tb, "replanned")
			if err != nil {
				t.Fatal(err)
			}
			if got := tb.Rows[0][repCol]; got != "topology,system,placement,strategy,eval" {
				t.Errorf("initial plan recomputed %q", got)
			}
			if spec.Name == "diurnal-demand" {
				for i := 1; i < len(tb.Rows); i++ {
					if got := tb.Rows[i][repCol]; got != "eval" {
						t.Errorf("step %d: demand-only delta recomputed %q, want eval only", i, got)
					}
				}
			}
		})
	}
}

// TestTimelineLibraryTablesPinned byte-checks the seven library timeline
// tables: each hash is the sha256 of `quorumbench -scenario <name>
// -reproducible -format csv`. A change to how a step is interpreted,
// planned or formatted has to show up here; a deliberate one re-records
// the hash.
func TestTimelineLibraryTablesPinned(t *testing.T) {
	pinned := map[string]string{
		"regional-outage":      "133a07e864137334756ce257f0463cc3e6925f6091fd14deddcc5ececb7cfd8d",
		"diurnal-demand":       "2c934e45b04d836f6e1062d62bcc74e73b1b1f27e13a88e50a00fd5fdcac71ee",
		"rtt-drift":            "218765e471c9d1410834c6f7fff27ad463a2bce4cb3f437dc26f6df36b9b1916",
		"site-churn":           "c8fd550339366816a7b9c8134e8628beb5b64edcbd33e529b9dd9865617e7861",
		"flash-crowd":          "61209c9947ebb9b5db391730fe55e2fa7a94c5cfbeba7fe20d9bc406194ee2e8",
		"heterogeneous-demand": "d8e610a13e905e0a0d1a0a2794e3c60fba4b6332910700d9b629b1e78f0461a2",
		"correlated-failure":   "24c0d558937b94f6d71c0b0d51f7fdb6d1bf1ef34ffe4cf161e18f7b1839f7a6",
	}
	for _, spec := range Library() {
		if spec.Kind != KindTimeline {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			want, ok := pinned[spec.Name]
			if !ok {
				t.Fatalf("library timeline %q has no pinned table hash", spec.Name)
			}
			tb, err := Run(&spec, RunConfig{Seed: topology.DefaultSeed, Reproducible: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tb.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
				t.Errorf("table hash %s, want %s; table now:\n%s", got, want, buf.String())
			}
		})
	}
}

// TestTimelineLibraryTablesPinnedDefaultProfile byte-checks the seven
// library timeline tables on the default solver profile, which re-plans
// through warm re-solves, Rebind and the dual-simplex repair: each hash
// is the sha256 of `quorumbench -scenario <name> -format csv`.
func TestTimelineLibraryTablesPinnedDefaultProfile(t *testing.T) {
	pinned := map[string]string{
		"regional-outage":      "7d3af8789debb93dd25af00e721b4a295ba627cc845f0ff0804e0ceebc21483e",
		"diurnal-demand":       "d5e6d74ac8eebd388a29eb1d01845c330c9072f31f1c557271a5aebbee58d39d",
		"rtt-drift":            "7312af341a36fd9a309052a6766f4ebd2ede823662abeb0bea6dea4eb47047f4",
		"site-churn":           "d04f898841abcb4738cd9de363fff065269151dd7748da1d5a3338977b222465",
		"flash-crowd":          "61209c9947ebb9b5db391730fe55e2fa7a94c5cfbeba7fe20d9bc406194ee2e8",
		"heterogeneous-demand": "3b2ac683cd24b9f3a97971a555bcbe14b7d4943416471460861bf1003862795d",
		"correlated-failure":   "24c0d558937b94f6d71c0b0d51f7fdb6d1bf1ef34ffe4cf161e18f7b1839f7a6",
	}
	for _, spec := range Library() {
		if spec.Kind != KindTimeline {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			want, ok := pinned[spec.Name]
			if !ok {
				t.Fatalf("library timeline %q has no pinned table hash", spec.Name)
			}
			tb, err := Run(&spec, RunConfig{Seed: topology.DefaultSeed})
			if err != nil {
				t.Fatal(err)
			}
			if got := csvHash(t, tb); got != want {
				t.Errorf("table hash %s, want %s", got, want)
			}
		})
	}
}

// TestValidateRejectsNewFields covers the hardening added with the
// weights/compare_unreplanned steps: empty steps, malformed weights,
// and misplaced flags are caught before execution.
func TestValidateRejectsNewFields(t *testing.T) {
	timeline := func(steps ...Step) Spec {
		return Spec{
			Name:     "t",
			Kind:     KindTimeline,
			Topology: TopologySpec{Source: "planetlab50"},
			Systems:  []SystemAxis{{Family: "grid", Params: []int{3}}},
			Timeline: steps,
		}
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"step without deltas", timeline(Step{Label: "noop"})},
		{"uniform weights with regions", timeline(Step{Label: "w", Weights: &WeightsStep{Uniform: true, Regions: map[string]float64{"europe": 2}}})},
		{"weights assigning nothing", timeline(Step{Label: "w", Weights: &WeightsStep{}})},
		{"negative region weight", timeline(Step{Label: "w", Weights: &WeightsStep{Regions: map[string]float64{"europe": -1}}})},
		{"zero site weight", timeline(Step{Label: "w", Weights: &WeightsStep{Sites: map[string]float64{"x": 0}}})},
		{"negative default weight", timeline(Step{Label: "w", Weights: &WeightsStep{Default: -1, Regions: map[string]float64{"europe": 2}}})},
		{"compare_unreplanned on eval", Spec{
			Name: "t", Kind: KindEval, Topology: TopologySpec{Source: "planetlab50"},
			Systems: []SystemAxis{{Family: "grid", Params: []int{3}}},
			Demands: []float64{0}, Strategies: []string{"closest"}, Measures: []string{"response"},
			CompareUnreplanned: true,
		}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
	ok := timeline(Step{Label: "w", Weights: &WeightsStep{Regions: map[string]float64{"europe": 2}}})
	ok.CompareUnreplanned = true
	if err := ok.Validate(); err != nil {
		t.Errorf("valid weights timeline rejected: %v", err)
	}
}

// TestLoadHardening is the table-driven Load contract: duplicate library
// names and malformed delta steps are rejected at load time, mirroring
// topology.Load's hardening.
func TestLoadHardening(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string
	}{
		{
			name:    "library name collision",
			json:    `{"name":"diurnal-demand","kind":"timeline","topology":{"source":"planetlab50"},"systems":[{"family":"grid","params":[3]}],"timeline":[{"label":"x","demand":1}]}`,
			wantErr: "collides with a built-in library scenario",
		},
		{
			name:    "library name collision (new scenarios)",
			json:    `{"name":"flash-crowd","kind":"timeline","topology":{"source":"planetlab50"},"systems":[{"family":"grid","params":[3]}],"timeline":[{"label":"x","demand":1}]}`,
			wantErr: "collides with a built-in library scenario",
		},
		{
			name:    "unknown delta kind (misspelled key)",
			json:    `{"name":"x","kind":"timeline","topology":{"source":"planetlab50"},"systems":[{"family":"grid","params":[3]}],"timeline":[{"label":"s","scale_rttt":{"factor":2}}]}`,
			wantErr: "unknown field",
		},
		{
			name:    "step with no deltas",
			json:    `{"name":"x","kind":"timeline","topology":{"source":"planetlab50"},"systems":[{"family":"grid","params":[3]}],"timeline":[{"label":"s"}]}`,
			wantErr: "has no deltas",
		},
		{
			name:    "weights step assigning nothing",
			json:    `{"name":"x","kind":"timeline","topology":{"source":"planetlab50"},"systems":[{"family":"grid","params":[3]}],"timeline":[{"label":"s","weights":{}}]}`,
			wantErr: "assigns nothing",
		},
	}
	for _, tc := range cases {
		_, err := Load(strings.NewReader(tc.json))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// A fresh name with well-formed deltas loads fine.
	good := `{"name":"my-workload","kind":"timeline","topology":{"source":"planetlab50"},"systems":[{"family":"grid","params":[3]}],"timeline":[{"label":"s","weights":{"regions":{"europe":2}}}]}`
	if _, err := Load(strings.NewReader(good)); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestLibraryNamesUnique guards the loader's collision check: the
// library itself must never introduce a duplicate.
func TestLibraryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Library() {
		if seen[s.Name] {
			t.Errorf("duplicate built-in scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestTimelineWeights drives a weights step through a small timeline:
// skewing demand toward one region must change the LP strategy's
// response (the replanned column shows strategy,eval) and revert
// cleanly to the uniform baseline.
func TestTimelineWeights(t *testing.T) {
	spec := Spec{
		Name:       "weights-timeline",
		Kind:       KindTimeline,
		Topology:   smallSynth(),
		Systems:    []SystemAxis{{Family: "grid", Params: []int{3}}},
		Strategies: []string{"lp"},
		Demands:    []float64{8000},
		Timeline: []Step{
			{Label: "eu-crowd", Weights: &WeightsStep{Regions: map[string]float64{"eu": 10}}},
			{Label: "uniform", Weights: &WeightsStep{Uniform: true}},
		},
	}
	tb, err := Run(&spec, RunConfig{Reproducible: true})
	if err != nil {
		t.Fatal(err)
	}
	repCol, err := colOf(tb, "replanned")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		if got := tb.Rows[i][repCol]; got != "strategy,eval" {
			t.Errorf("weights step %d recomputed %q, want strategy,eval", i, got)
		}
	}
	base, err := cellOf(tb, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	skew, err := cellOf(tb, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := cellOf(tb, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if skew == base {
		t.Errorf("regional skew left the response at %v; weights had no effect", base)
	}
	if rev != base {
		t.Errorf("uniform reset response %v != initial %v", rev, base)
	}

	// Unknown names surface as step errors.
	bad := spec
	bad.Name = "weights-bad"
	bad.Timeline = []Step{{Label: "x", Weights: &WeightsStep{Regions: map[string]float64{"atlantis": 2}}}}
	if _, err := Run(&bad, RunConfig{Reproducible: true}); err == nil {
		t.Error("unknown region accepted at run time")
	}
}

// TestTimelineCompareUnreplanned exercises the planner-level fault
// comparison: an outage step reports both the re-planned response and
// the response of the deployment that kept its old plan, and the old
// plan can never win.
func TestTimelineCompareUnreplanned(t *testing.T) {
	spec := Spec{
		Name:               "unreplanned-timeline",
		Kind:               KindTimeline,
		Topology:           smallSynth(),
		Systems:            []SystemAxis{{Family: "grid", Params: []int{3}}},
		Strategies:         []string{"lp"},
		Demands:            []float64{8000},
		CompareUnreplanned: true,
		Timeline: []Step{
			{Label: "demand-spike", Demand: fp(16000)},
			{Label: "eu-outage", RemoveRegion: "eu"},
			{Label: "rtt-shift", ScaleRTT: &ScaleRTTStep{Factor: 1.2}},
		},
	}
	tb, err := Run(&spec, RunConfig{Reproducible: true})
	if err != nil {
		t.Fatal(err)
	}
	col, err := colOf(tb, "unreplanned_ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Rows[0][col]; got != "-" {
		t.Errorf("initial row unreplanned cell %q, want -", got)
	}
	// Demand-only step: the LP strategy does not depend on alpha, so not
	// re-planning costs nothing — the cells must match.
	replanned, err := cellOf(tb, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	unreplanned, err := cellOf(tb, 1, col)
	if err != nil {
		t.Fatal(err)
	}
	if replanned != unreplanned {
		t.Errorf("demand step: replanned %v != unreplanned %v (LP ignores alpha)", replanned, unreplanned)
	}
	// Outage step: both sides of the comparison are present — the
	// re-planned response on the surviving WAN and the response of the
	// deployment that kept its pre-failure plan (its strategy
	// renormalized over the surviving quorums). Neither side dominates
	// in general: the un-replanned deployment keeps the wider
	// pre-failure metric but a thinner quorum set.
	replanned, err = cellOf(tb, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	unreplanned, err = cellOf(tb, 2, col)
	if err != nil {
		t.Fatal(err)
	}
	if replanned <= 0 || unreplanned <= 0 {
		t.Errorf("outage step: implausible responses (replanned %v, unreplanned %v)", replanned, unreplanned)
	}
	// Metric edits have no previous-topology counterpart.
	if got := tb.Rows[3][col]; got != "-" {
		t.Errorf("scale_rtt unreplanned cell %q, want -", got)
	}
}
