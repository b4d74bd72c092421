package store

import (
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"

	"amnt/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestStoreMetricNamesStable pins the store's external metric
// vocabulary: every /vars and /metrics series a 2-shard store
// registers, and every /v1/store/stats JSON key of a marshaled shard,
// against a checked-in list. CI, the benchmark, and dashboards read
// these names; a refactor of how they are declared must not drop or
// rename one.
func TestStoreMetricNamesStable(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	s := mustOpen(t, cfg)
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)
	names := reg.Names()
	sort.Strings(names)

	raw, err := json.Marshal(s.Stats().Shards[0])
	if err != nil {
		t.Fatal(err)
	}
	var shard map[string]json.RawMessage
	if err := json.Unmarshal(raw, &shard); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range shard {
		keys = append(keys, "stats:"+k)
	}
	sort.Strings(keys)

	got := strings.Join(append(names, keys...), "\n") + "\n"
	const golden = "testdata/metric_names.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("metric name set changed (rerun with -update only if the rename is intended)\ngot:\n%swant:\n%s", got, want)
	}
}
