// Command benchjson converts standard `go test -bench` output into
// machine-readable JSON for trend tracking. It reads the textual
// exposition on stdin and writes one JSON document:
//
//	go test -bench Induce -benchmem -run xxx . | benchjson -o BENCH_induce.json
//
// The document carries the run context (goos/goarch/pkg/cpu, taken from
// the benchmark header lines) and one record per result line with the
// benchmark name, the -N CPU suffix split off, the iteration count, and
// ns/op, B/op, allocs/op where present. Lines that are not benchmark
// results (PASS, ok, logging) pass through to stderr so a failing run
// stays visible. Stdlib only, like everything else in this repo.
//
// With -compare BASELINE.json the run is additionally checked against a
// committed snapshot: a benchmark whose allocs/op or B/op grew by more
// than -threshold percent fails the run (exit 1), and so does a
// benchmark the baseline has that this run lacks — a gate that stopped
// running must be removed from the baseline on purpose, not dropped in
// silence. Those two metrics are deterministic, so they compare
// meaningfully across machines; ns/op is recorded but never compared
// (the baselines are single iterations on another machine). A benchmark
// new in this run is reported and passes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// record is one benchmark result line.
type record struct {
	Name        string  `json:"name"`
	CPUs        int     `json:"cpus,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp,omitempty"`
	AllocsPerOp int64   `json:"allocsPerOp,omitempty"`
}

// document is the emitted JSON shape.
type document struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []record `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to diff against; allocs/op or B/op regressions past -threshold, or a baseline benchmark missing from this run, fail the run")
	threshold := flag.Float64("threshold", 25, "allowed regression in percent for -compare")
	flag.Parse()

	doc, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	if *compare != "" {
		base, err := load(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if regressed := diff(base, doc, *threshold, os.Stderr); regressed {
			os.Exit(1)
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if *out == "" {
		if *compare != "" {
			return // compare-only invocations keep stdout quiet
		}
		if _, err := os.Stdout.Write(b); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(doc.Results), *out)
}

// load reads a previously emitted document.
func load(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &document{}
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// diff reports each allocs/op or B/op regression past the threshold and
// each baseline benchmark missing from the run, and returns whether it
// found any.
func diff(base, cur *document, threshold float64, w io.Writer) bool {
	old := make(map[string]record, len(base.Results))
	for _, r := range base.Results {
		old[r.Name] = r
	}
	grew := func(was, now int64) bool {
		return was > 0 && float64(now-was)/float64(was)*100 > threshold
	}
	fatal := false
	for _, r := range cur.Results {
		b, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(w, "benchjson: %s: new benchmark (no baseline)\n", r.Name)
			continue
		}
		delete(old, r.Name)
		if grew(b.AllocsPerOp, r.AllocsPerOp) {
			fmt.Fprintf(w, "benchjson: FAIL %s: allocs/op %d -> %d (>%g%%)\n",
				r.Name, b.AllocsPerOp, r.AllocsPerOp, threshold)
			fatal = true
		}
		if grew(b.BytesPerOp, r.BytesPerOp) {
			fmt.Fprintf(w, "benchjson: FAIL %s: B/op %d -> %d (>%g%%)\n",
				r.Name, b.BytesPerOp, r.BytesPerOp, threshold)
			fatal = true
		}
	}
	missing := make([]string, 0, len(old))
	for name := range old {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "benchjson: FAIL %s: present in baseline, missing from this run\n", name)
		fatal = true
	}
	return fatal
}

// parse reads `go test -bench` output, returning the parsed document.
// Non-result lines are echoed to echo so test failures stay visible.
func parse(r io.Reader, echo io.Writer) (*document, error) {
	doc := &document{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			rec, ok := parseResult(line)
			if !ok {
				fmt.Fprintln(echo, line)
				continue
			}
			doc.Results = append(doc.Results, rec)
		default:
			if strings.TrimSpace(line) != "" {
				fmt.Fprintln(echo, line)
			}
		}
	}
	return doc, sc.Err()
}

// parseResult parses one result line of the form
//
//	BenchmarkName-8  10  123.4 ns/op  56 B/op  7 allocs/op
//
// returning ok=false for anything that does not fit (e.g. a benchmark
// log line that happens to start with "Benchmark").
func parseResult(line string) (record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return record{}, false
	}
	var rec record
	rec.Name = fields[0]
	if i := strings.LastIndex(rec.Name, "-"); i > 0 {
		if n, err := strconv.Atoi(rec.Name[i+1:]); err == nil {
			rec.Name, rec.CPUs = rec.Name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	rec.Iterations = iters
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return record{}, false
			}
			rec.NsPerOp, sawNs = f, true
		case "B/op":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return record{}, false
			}
			rec.BytesPerOp = n
		case "allocs/op":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return record{}, false
			}
			rec.AllocsPerOp = n
		}
	}
	return rec, sawNs
}
