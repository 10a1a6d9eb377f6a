package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// seededSynth is smallSynth without the per-scenario seed override (a
// seeds axis and topology.seed are exclusive).
func seededSynth() TopologySpec {
	ts := smallSynth()
	ts.Seed = 0
	return ts
}

// seededSpecs covers every kind under a 3-value seeds axis.
func seededSpecs() []Spec {
	return []Spec{
		{
			Name:       "seeded-eval",
			Kind:       KindEval,
			Seeds:      []int64{11, 12, 13},
			Topology:   seededSynth(),
			Systems:    []SystemAxis{{Family: "grid", Params: []int{2, 3}}, {Family: "majority", Params: []int{1}}},
			Demands:    []float64{0, 4000},
			Strategies: []string{"closest", "lp"},
			Measures:   []string{"response"},
		},
		{
			Name:     "seeded-sweep-scaled",
			Kind:     KindSweep,
			Seeds:    []int64{11, 12},
			Scale:    &ScaleSpec{Sites: 1.5, Clients: 2},
			Topology: seededSynth(),
			Systems:  []SystemAxis{{Family: "grid", Params: []int{2, 3}}},
			Sweep:    &SweepSpec{Points: 4, Demand: 4000},
		},
		{
			Name:       "seeded-timeline",
			Kind:       KindTimeline,
			Seeds:      []int64{21, 22},
			Topology:   seededSynth(),
			Systems:    []SystemAxis{{Family: "grid", Params: []int{3}}},
			Strategies: []string{"lp"},
			Demands:    []float64{8000},
			Timeline: []Step{
				{Label: "crowd", Weights: &WeightsStep{Regions: map[string]float64{"eu": 5}}},
				{Label: "uniform", Weights: &WeightsStep{Uniform: true}},
			},
		},
	}
}

// TestSeededShardedByteIdentical: seeded (and scaled) specs merge
// byte-identically to their unsharded runs at every shard count 1..8,
// with partials supplied in scrambled order — the exact-cover assertion
// inside Merge holds across the seed sub-space boundaries.
func TestSeededShardedByteIdentical(t *testing.T) {
	cfg := shardCfg()
	for _, spec := range seededSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			base, err := Run(&spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var baseText bytes.Buffer
			if err := base.Format(&baseText); err != nil {
				t.Fatal(err)
			}
			if base.Columns[0] != "seed" {
				t.Fatalf("seeded spec lacks leading seed column: %v", base.Columns)
			}
			for shards := 1; shards <= 8; shards++ {
				space, err := NewSpace(&spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				partials := make([]*Partial, shards)
				for si := 0; si < shards; si++ {
					part, err := space.Shard(si, shards)
					if err != nil {
						t.Fatal(err)
					}
					if partials[si], err = part.Execute(); err != nil {
						t.Fatalf("shard %d/%d: %v", si, shards, err)
					}
				}
				merged, err := space.Merge(scramble(partials, shards))
				if err != nil {
					t.Fatalf("merge %d shards: %v", shards, err)
				}
				var mergedText bytes.Buffer
				if err := merged.Format(&mergedText); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(baseText.Bytes(), mergedText.Bytes()) {
					t.Fatalf("%d shards: merged output differs from unsharded run:\n%s\nvs\n%s",
						shards, mergedText.String(), baseText.String())
				}
			}
		})
	}
}

// TestSeedSubSpacesScrambledMerge merges one partial per point, grouped
// by seed sub-space and supplied with the sub-spaces out of order (seed
// 13's partials first, then 11's, then 12's) — the merged table must
// still come out in enumeration order, every seed's rows leading with
// its seed value.
func TestSeedSubSpacesScrambledMerge(t *testing.T) {
	spec := seededSpecs()[0]
	cfg := shardCfg()
	base, err := Run(&spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	space, err := NewSpace(&spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := space.NumPoints()
	if n%3 != 0 {
		t.Fatalf("expected 3 equal seed sub-spaces, got %d points", n)
	}
	per := n / 3
	partials := make([]*Partial, n)
	for i := 0; i < n; i++ {
		part, err := space.Shard(i, n)
		if err != nil {
			t.Fatal(err)
		}
		if partials[i], err = part.Execute(); err != nil {
			t.Fatal(err)
		}
	}
	// Single-point shard i holds ordinal i, and ordinals run seed-major,
	// so [2per:3per) is seed 13's sub-space, etc.
	var scrambled []*Partial
	scrambled = append(scrambled, partials[2*per:]...)
	scrambled = append(scrambled, partials[:per]...)
	scrambled = append(scrambled, partials[per:2*per]...)
	merged, err := space.Merge(scrambled)
	if err != nil {
		t.Fatal(err)
	}
	var baseText, mergedText bytes.Buffer
	if err := base.Format(&baseText); err != nil {
		t.Fatal(err)
	}
	if err := merged.Format(&mergedText); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseText.Bytes(), mergedText.Bytes()) {
		t.Fatal("scrambled seed sub-space merge differs from unsharded run")
	}
	wantSeeds := []string{"11", "12", "13"}
	for ri, row := range merged.Rows {
		want := wantSeeds[ri/(len(merged.Rows)/3)]
		if row[0] != want {
			t.Fatalf("row %d seed cell %q, want %q", ri, row[0], want)
		}
	}
}

// TestDuplicatePartialRejected: a shard executed twice (two attempts of
// the same shard, as a fleet coordinator would see after a worker came
// back from the dead) is rejected by Merge — exactly one error naming
// the duplicated point.
func TestDuplicatePartialRejected(t *testing.T) {
	spec := seededSpecs()[0]
	cfg := shardCfg()
	space, err := NewSpace(&spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shard0, err := space.Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	shard1, err := space.Shard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	attempt1, err := shard0.Execute()
	if err != nil {
		t.Fatal(err)
	}
	attempt2, err := shard0.Execute()
	if err != nil {
		t.Fatal(err)
	}
	other, err := shard1.Execute()
	if err != nil {
		t.Fatal(err)
	}
	_, err = space.Merge([]*Partial{attempt1, other, attempt2})
	if err == nil {
		t.Fatal("duplicate partial merged without error")
	}
	if !strings.Contains(err.Error(), "executed 2 times") {
		t.Fatalf("duplicate error %q does not name the double execution", err)
	}
	// The duplicate rejected, the honest pair still merges.
	if _, err := space.Merge([]*Partial{other, attempt1}); err != nil {
		t.Fatalf("valid partials no longer merge: %v", err)
	}
}

// TestScaleMultipliers: scale.sites grows the synthetic topology (the
// auto-expanded system axis sees more sites) and scale.clients shows up
// in the derived demand column names.
func TestScaleMultipliers(t *testing.T) {
	base := Spec{
		Name:       "scale-probe",
		Kind:       KindEval,
		Topology:   seededSynth(),
		Systems:    []SystemAxis{{Family: "majority"}}, // auto-expand: 2p+1 <= sites-1
		Demands:    []float64{4000},
		Strategies: []string{"closest"},
		Measures:   []string{"response"},
	}
	cfg := shardCfg()
	unscaled, err := NewSpace(&base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scaled := base
	scaled.Scale = &ScaleSpec{Sites: 2, Clients: 2.5}
	scaledSpace, err := NewSpace(&scaled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 15 sites -> 6 majority systems (2p+1 <= 14); 30 sites -> 14.
	if got, want := unscaled.NumPoints(), 6; got != want {
		t.Fatalf("unscaled point count %d, want %d", got, want)
	}
	if got, want := scaledSpace.NumPoints(), 14; got != want {
		t.Fatalf("scaled point count %d, want %d", got, want)
	}
	// One demand value never suffixes column names; scale a two-demand
	// spec to see the multiplied values in the schema.
	multi := scaled
	multi.Demands = []float64{4000, 8000}
	multiSpace, err := NewSpace(&multi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols := strings.Join(multiSpace.finalColumns(), ",")
	if !strings.Contains(cols, "_d10000") || !strings.Contains(cols, "_d20000") {
		t.Fatalf("scaled demand columns missing from %v", multiSpace.finalColumns())
	}
	// The caller's spec is never mutated by scaling.
	if multi.Demands[0] != 4000 || multi.Topology.Synth.Regions[0].Count != 5 {
		t.Fatalf("scaling mutated the caller's spec: %+v", multi)
	}
}

// TestSeedsAndScaleValidation rejects the inconsistent axis
// combinations.
func TestSeedsAndScaleValidation(t *testing.T) {
	mk := func(mut func(*Spec)) *Spec {
		s := &Spec{
			Name:       "bad",
			Kind:       KindEval,
			Topology:   seededSynth(),
			Systems:    []SystemAxis{{Family: "grid", Params: []int{2}}},
			Demands:    []float64{0},
			Strategies: []string{"closest"},
			Measures:   []string{"response"},
		}
		mut(s)
		return s
	}
	cases := []struct {
		name string
		spec *Spec
		want string
	}{
		{"seeds-with-file", mk(func(s *Spec) {
			s.Seeds = []int64{1}
			s.Topology = TopologySpec{Source: "file", Path: "x.txt"}
		}), "seed-consuming"},
		{"seeds-with-topology-seed", mk(func(s *Spec) {
			s.Seeds = []int64{1}
			s.Topology.Seed = 7
		}), "exclusive"},
		{"duplicate-seed", mk(func(s *Spec) { s.Seeds = []int64{4, 4} }), "twice"},
		{"zero-seed", mk(func(s *Spec) { s.Seeds = []int64{0} }), "seed 0"},
		{"empty-scale", mk(func(s *Spec) { s.Scale = &ScaleSpec{} }), "multiplies nothing"},
		{"negative-sites", mk(func(s *Spec) { s.Scale = &ScaleSpec{Sites: -1} }), "invalid scale.sites"},
		{"negative-clients", mk(func(s *Spec) { s.Scale = &ScaleSpec{Clients: -2} }), "invalid scale.clients"},
		{"sites-on-measured", mk(func(s *Spec) {
			s.Scale = &ScaleSpec{Sites: 2}
			s.Topology = TopologySpec{Source: "planetlab50"}
		}), "scale.sites"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatal("invalid spec validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	// Scale on a protocol grid multiplies clients per site.
	ps := &Spec{
		Name:     "scaled-protocol",
		Kind:     KindProtocol,
		Topology: seededSynth(),
		Scale:    &ScaleSpec{Clients: 3},
		Protocol: &ProtocolSpec{Ts: []int{1}, PerSite: []int{2}, ClientSites: 5},
	}
	space, err := NewSpace(ps, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := space.points[0].Label; !strings.Contains(got, "clients=30") {
		t.Fatalf("scaled protocol label %q, want clients=30 (2*3 per site x 5 sites)", got)
	}
	if ps.Protocol.PerSite[0] != 2 {
		t.Fatal("scaling mutated the caller's protocol spec")
	}
}
