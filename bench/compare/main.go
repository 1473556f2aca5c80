// Command compare reads one or two result files written by sweep.sh and
// judges them against the bounds in BENCHMARK.json.
//
//	go run ./compare runs.jsonl             # spread of each metric against its bound
//	go run ./compare parent.jsonl new.jsonl # both medians, the ratio, and a verdict
//
// A result file holds one JSON object per line:
// {"workload": ..., "seed": ..., "trace": ..., "result": <the benchmark's result line>}.
// With one file the question is whether the benchmark is steady enough
// to judge anything; with two, whether the second is worse than the
// first. A pair whose run-to-run spread (interquartile range over
// median, either side) exceeds the metric's bound is "unresolved",
// never "ok": the runs cannot tell a regression of that size from noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for a per-layer metric: reported, never judged
}

type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// key is one (metric, workload) pairing.
type key struct{ metric, workload string }

// load returns every value a file holds per pairing, in file order.
func load(path string) (map[key][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //ilint:allow errdrop — read-only file; scan errors are reported below
	out := map[key][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d is not a correct run", path, line, rec.Workload, rec.Seed)
		}
		for name, m := range rec.Result.Metrics {
			k := key{name, rec.Workload}
			out[k] = append(out[k], m.Value) //ilint:allow maporder — one append per key per record: within a key the order is file order
		}
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method, as Python's statistics.quantiles(xs, n=4) does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func main() {
	benchPath := flag.String("bench", "../BENCHMARK.json", "the benchmark definition holding the bounds")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] runs.jsonl [later-runs.jsonl]")
	}
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*benchPath, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func run(benchPath string, files []string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := load(files[0])
	if err != nil {
		return err
	}
	var b map[key][]float64
	if len(files) == 2 {
		if b, err = load(files[1]); err != nil {
			return err
		}
	}
	bad := 0
	for _, spec := range append(bf.EndToEnd, bf.PerLayer...) {
		for _, w := range bf.Workloads {
			k := key{spec.Name, w.Name}
			if len(a[k]) == 0 {
				continue
			}
			if b == nil {
				bad += reportSpread(spec, w.Name, a[k])
			} else if len(b[k]) > 0 {
				bad += reportPair(spec, w.Name, a[k], b[k])
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d pairings are not ok", bad)
	}
	return nil
}

// reportSpread prints one pairing of a single file: is the metric
// steady enough for its bound to mean anything?
func reportSpread(spec metricSpec, workload string, xs []float64) int {
	_, med, _ := quartiles(xs)
	sp := spread(xs)
	verdict := ""
	switch {
	case spec.Bound == 0:
	case sp > spec.Bound:
		verdict = "unsteady: spread above the bound"
	case sp > spec.Bound/3:
		verdict = "loose: spread above a third of the bound"
	default:
		verdict = "steady"
	}
	fmt.Printf("%-36s %-18s n=%-3d median %14.4f %-6s spread %6.2f%%  bound %4.0f%%  %s\n",
		spec.Name, workload, len(xs), med, spec.Unit, 100*sp, 100*spec.Bound, verdict)
	if sp > spec.Bound && spec.Bound > 0 {
		return 1
	}
	return 0
}

// reportPair prints one pairing of two files: both medians, the ratio
// of the second to the first, and whether the second is worse by more
// than the bound.
func reportPair(spec metricSpec, workload string, a, b []float64) int {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		fmt.Printf("%-36s %-18s base 0, now %.4f %s\n", spec.Name, workload, mb, spec.Unit)
		return 0
	}
	worse := (mb - ma) / ma
	if spec.Better == "higher" {
		worse = -worse
	}
	verdict := ""
	switch {
	case spec.Bound == 0:
	case spread(a) > spec.Bound || spread(b) > spec.Bound:
		verdict = "unresolved"
	case worse > spec.Bound:
		verdict = "regressed"
	default:
		verdict = "ok"
	}
	fmt.Printf("%-36s %-18s %14.4f -> %14.4f %-6s x%.3f of %.4f  spreads %5.2f%% %5.2f%%  bound %4.0f%%  %s\n",
		spec.Name, workload, ma, mb, spec.Unit, mb/ma, ma, 100*spread(a), 100*spread(b), 100*spec.Bound, verdict)
	if verdict == "regressed" || verdict == "unresolved" {
		return 1
	}
	return 0
}
