package induct

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"intensional/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/fleet_rules.txt from the current InduceAll output")

// fleetGolden pins the rule set induced from the benchmark's fleet —
// 60 000 ships, 240 classes, Nc = 2 — rule by rule: number, text and
// support, in set order. Every change to how rules are induced must
// leave it byte-identical.
var fleetGolden = filepath.Join("testdata", "fleet_rules.txt")

// TestFleetRulesGolden induces the benchmark's fleet and compares the
// numbered rule set with the committed golden file. Run
// `go test ./internal/induct -run TestFleetRulesGolden -update` to
// regenerate it after an intended change.
func TestFleetRulesGolden(t *testing.T) {
	cat := synth.Fleet(synth.FleetConfig{ClassesPerType: 20, ShipsPerClass: 250, Seed: 1})
	d, err := synth.FleetDictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	set, err := New(d, Options{Nc: 2}).InduceAll()
	if err != nil {
		t.Fatal(err)
	}
	got := renderWithSupports(set)
	if *update {
		if err := os.WriteFile(fleetGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fleetGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("fleet rule set (%d rules) differs from %s; diff it, and rerun with -update if the change is intended",
			set.Len(), fleetGolden)
	}
	if set.Len() != 934 {
		t.Errorf("fleet rule set has %d rules, want 934", set.Len())
	}
}
