package fleet

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// TestShardRequestWireStable pins the bytes a coordinator posts for
// shard 0 of 2 of a `quorumbench -fig 6.3 -quick -reproducible` run, so
// workers and journals of another version keep reading what this one
// writes.
func TestShardRequestWireStable(t *testing.T) {
	const want = "8a45ac9ca7301ce35d27481b89dc9e2ba6fe591e4d37981ea12c533a0c05b595"
	var spec *scenario.Spec
	for _, s := range scenario.Figures(true) {
		if s.Name == "fig6.3" {
			spec = &s
		}
	}
	cfg := scenario.RunConfig{Seed: topology.DefaultSeed, Reproducible: true, QURuns: 5, QUDurationMS: 20000}.QuickScale()
	body, err := json.Marshal(&ShardRequest{Spec: spec, Config: cfg, Shard: 0, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != want {
		t.Errorf("request hash %s, want %s; request now:\n%s", got, want, body)
	}
}
