package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current RunAll output")

// goldenFile pins the complete artifact report byte for byte, so a
// change anywhere in the pipeline that moves a rule, an answer or a
// piece of optimizer advice shows up as a diff of this file.
var goldenFile = filepath.Join("testdata", "golden.txt")

// TestRunAll executes every registered experiment, compares the report
// with the committed golden file, and checks each report carries its key
// artifact. Run `go test ./internal/experiments -update` to regenerate
// the golden file after an intended change.
func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("RunAll output differs from %s; diff the report against it, and rerun with -update if the change is intended", goldenFile)
	}
	out := buf.String()
	wants := []string{
		// E1: the rule set and the fidelity notes.
		"Induced rule set over the Appendix C instance",
		"entailed: 16/17",
		// E2: Example 1's answers.
		"Rhode Island",
		"type SSBN has Displacement > 8000",
		// E3: Example 2's incompleteness and its resolution.
		"Classes in the range of 0101 to 0103 are SSBN",
		"With R_new maintained the intensional answer is complete",
		// E4: Example 3 combined.
		"0208",
		// E5: Table 1 reproduction.
		"All 12 type ranges match Table 1 exactly.",
		// E6: Figure 5.
		"if 7250 <= CLASS.Displacement <= 30000 then x isa SSBN",
		// E7: the KER schema rendering.
		"object type SUBMARINE",
		// E8: the Section 5.2.2 tables.
		"Attribute value mapping relation",
		// A1-A3.
		"Example 2 backward answer complete?",
		"superset + subset (combined)",
		"subset of answer (backward)",
		"constraints only (Motro-style)",
		// A4-A5.
		"VISIT: SHIP.Draft < PORT.Depth",
		"correctly withdrawn",
		"split on CLASS.Displacement <= 6955",
		// A6.
		"empty: no stored value satisfies",
		"redundant restriction #0",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "MISSING:") {
		t.Error("E1 reports missing paper rules")
	}
	if strings.Contains(out, "MISMATCH") {
		t.Error("E5 reports a Table 1 mismatch")
	}
}

func TestRunUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("E99", &buf); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestAllAndTitle(t *testing.T) {
	ids := All()
	if len(ids) != 14 {
		t.Errorf("experiments = %d, want 14", len(ids))
	}
	if Title("E1") == "" || Title("nope") != "" {
		t.Error("Title lookup broken")
	}
}
