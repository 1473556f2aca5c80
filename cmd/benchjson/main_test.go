package main

import (
	"bytes"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: intensional
cpu: Example CPU @ 2.40GHz
BenchmarkInduceShipDB-8   	     100	    123456 ns/op	   45678 B/op	     901 allocs/op
BenchmarkQueryExample1-8  	    5000	       234.5 ns/op
BenchmarkInduceNcSweep/Nc=2-8 	      50	    999999 ns/op	  111111 B/op	    2222 allocs/op
--- BENCH: BenchmarkSomething
    bench_test.go:42: some log line
PASS
ok  	intensional	1.234s
`

func TestParse(t *testing.T) {
	var echo bytes.Buffer
	doc, err := parse(strings.NewReader(sample), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.Pkg != "intensional" {
		t.Errorf("header = %q %q %q", doc.GOOS, doc.GOARCH, doc.Pkg)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("results = %d, want 3: %+v", len(doc.Results), doc.Results)
	}
	r := doc.Results[0]
	if r.Name != "BenchmarkInduceShipDB" || r.CPUs != 8 || r.Iterations != 100 ||
		r.NsPerOp != 123456 || r.BytesPerOp != 45678 || r.AllocsPerOp != 901 {
		t.Errorf("first result = %+v", r)
	}
	r = doc.Results[1]
	if r.NsPerOp != 234.5 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Errorf("no-benchmem result = %+v", r)
	}
	if doc.Results[2].Name != "BenchmarkInduceNcSweep/Nc=2" {
		t.Errorf("sub-benchmark name = %q", doc.Results[2].Name)
	}
	// Non-result lines pass through for visibility.
	for _, want := range []string{"--- BENCH", "some log line", "PASS", "ok "} {
		if !strings.Contains(echo.String(), want) {
			t.Errorf("echo missing %q: %q", want, echo.String())
		}
	}
}

func TestDiff(t *testing.T) {
	base := &document{Results: []record{
		{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkB", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
	}}
	cur := &document{Results: []record{
		// Within threshold on the compared metrics; ns/op is not compared.
		{Name: "BenchmarkA", NsPerOp: 500, BytesPerOp: 1100, AllocsPerOp: 12},
		// Allocs grew past 25%: fatal.
		{Name: "BenchmarkB", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 20},
		{Name: "BenchmarkNew", NsPerOp: 1},
	}}
	var out bytes.Buffer
	if !diff(base, cur, 25, &out) {
		t.Fatalf("alloc regression not fatal; output:\n%s", out.String())
	}
	for _, want := range []string{
		"FAIL BenchmarkB: allocs/op 10 -> 20",
		"BenchmarkNew: new benchmark",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "BenchmarkA") {
		t.Errorf("ns/op growth alone was reported:\n%s", out.String())
	}

	var quiet bytes.Buffer
	if diff(base, &document{Results: base.Results}, 25, &quiet) {
		t.Errorf("identical run flagged as regression:\n%s", quiet.String())
	}
}

// TestDiffMissingIsFatal: a benchmark the baseline has and the run
// lacks fails the comparison even when everything present is fine.
func TestDiffMissingIsFatal(t *testing.T) {
	base := &document{Results: []record{
		{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkGone", NsPerOp: 1, BytesPerOp: 8, AllocsPerOp: 1},
	}}
	cur := &document{Results: base.Results[:1]}
	var out bytes.Buffer
	if !diff(base, cur, 25, &out) {
		t.Fatalf("missing benchmark not fatal; output:\n%s", out.String())
	}
	if want := "FAIL BenchmarkGone: present in baseline, missing from this run"; !strings.Contains(out.String(), want) {
		t.Errorf("diff output missing %q:\n%s", want, out.String())
	}
}

func TestParseResultRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"BenchmarkFoo", // bare name, no fields
		"BenchmarkFoo-8 notanumber 1 ns/op",
		"BenchmarkFoo-8 10 fast ns/op",
		"Benchmark log output without numbers here",
	} {
		if _, ok := parseResult(line); ok {
			t.Errorf("parseResult(%q) accepted", line)
		}
	}
}
