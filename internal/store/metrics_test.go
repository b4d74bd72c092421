package store

import (
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"amnt/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestStoreMetricNamesStable pins the store's external metric
// vocabulary: every /vars and /metrics series a 2-shard store
// registers, and every /v1/store/stats JSON key of a ShardSnapshot,
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

	var keys []string
	typ := reflect.TypeOf(ShardSnapshot{})
	for i := 0; i < typ.NumField(); i++ {
		tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		keys = append(keys, "stats:"+tag)
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
