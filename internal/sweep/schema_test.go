package sweep

import (
	"os"
	"testing"
)

// TestSchemaGolden locks the report schema against the committed
// golden: regenerating the baseline campaign must produce the same
// structure (key sets, array shapes, value types, axis names).
// Measured values are free to drift; renaming or dropping a field — or
// a metric key — means bumping SchemaVersion and regenerating both the
// golden and BENCH_sweep_baseline.json:
//
//	go run ./cmd/sweep -campaign baseline -out .
//	cp BENCH_sweep_baseline.json internal/sweep/testdata/schema_golden.json
func TestSchemaGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/schema_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(Baseline(), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchema(got, want); err != nil {
		t.Fatalf("schema drifted from the committed golden: %v", err)
	}
	if rep.SchemaVersion != SchemaVersion {
		t.Fatalf("report carries version %d, package says %d", rep.SchemaVersion, SchemaVersion)
	}
}
