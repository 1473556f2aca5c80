package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testSize is the benchmark shrunk to 120 classes and 12 000 ships, and
// testSeconds the timed phase that goes with it: test-only constants,
// not flags. Everything else — stacks, streams, oracle, recovery step,
// traced passes — is the code the driver runs.
var testSize = sizing{
	classesPerType: 10,
	shipsPerClass:  100,
	setups:         2,
	warmOps:        70,
	tailRows:       120,
	sampleOps:      60,
}

const testSeconds = time.Second

// benchmarkJSON is BENCHMARK.json as far as the tests read it.
type benchmarkJSON struct {
	RunSeconds float64                       `json:"run_seconds"`
	Workloads  []struct{ Name string }       `json:"workloads"`
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONNamesWhatTheCodeMeasures(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, have)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		var want []struct{ Name, Unit string }
		for _, d := range defs {
			want = append(want, struct{ Name, Unit string }{d.name, d.unit})
		}
		if !reflect.DeepEqual(declared, want) {
			t.Errorf("%s: BENCHMARK.json declares %v, code measures %v", kind, declared, want)
		}
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %v, code's default is %v", bj.RunSeconds, runSeconds)
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// signature renders what reaches the wire for an op.
func signature(o op) string {
	return strings.Join(append([]string{o.shape, o.mode, o.sql}, o.stmts...), "|")
}

func drain(t *testing.T, w *workload, seed int64, id, n int) []string {
	t.Helper()
	_, _, m, err := generate(testSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(m, w, seed, id)
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, signature(s.next()))
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		for id := 0; id < nStreams; id++ {
			a, b := drain(t, w, 7, id, 300), drain(t, w, 7, id, 300)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s stream %d: seed 7 gave two different streams", w.name, id)
			}
			if c := drain(t, w, 8, id, 300); reflect.DeepEqual(a, c) {
				t.Errorf("%s stream %d: seeds 7 and 8 gave the same stream", w.name, id)
			}
		}
	}
}

func TestAdhocStreamsNeverRepeatAText(t *testing.T) {
	w := workloadByName("read_adhoc")
	seen := map[string]int{}
	for id := 0; id < nStreams; id++ {
		for _, sig := range drain(t, w, 3, id, 400) {
			if prev, dup := seen[sig]; dup {
				t.Fatalf("streams %d and %d both emit %s", prev, id, sig)
			}
			seen[sig] = id
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Error("p95 of 199 samples leaves 9 beyond it and was not refused")
	}
	xs = append(xs, 200)
	got, err := percentile(xs, 95)
	if err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	if _, err := percentile(xs[:100], 90); err != nil {
		t.Errorf("p90 of 100 samples leaves 10 beyond it and was refused: %v", err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples was not refused")
	}
	for p, want := range map[float64]int{95: 200, 90: 100, 80: 50, 75: 40} {
		if got := samplesFor(p); got != want {
			t.Errorf("samplesFor(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestBoundsBracketARacingWriter(t *testing.T) {
	// Nothing in flight: exact.
	quiet := window{insStarted: 5, insAcked: 5, delStarted: 2, delAcked: 2}
	if lo, hi := bounds(100, quiet, quiet); lo != 103 || hi != 103 {
		t.Errorf("quiet bounds = %d..%d, want 103..103", lo, hi)
	}
	// One insert and one delete begin between send and receive.
	recv := window{insStarted: 6, insAcked: 5, delStarted: 3, delAcked: 2}
	if lo, hi := bounds(100, quiet, recv); lo != 102 || hi != 104 {
		t.Errorf("racing bounds = %d..%d, want 102..104", lo, hi)
	}
}

func TestStringInterval(t *testing.T) {
	for _, c := range []struct {
		interval, value string
		want            bool
	}{
		{"[CG..CGN]", "CG", true},
		{"[CG..CGN]", "CGN", true},
		{"[CG..CGN]", "CV", false},
		{"(CG..CGN]", "CG", false},
		{"(-inf..SSN)", "BB", true},
		{"(-inf..SSN)", "SSN", false},
		{"[DD..+inf)", "SSN", true},
	} {
		inside, err := stringInterval(c.interval)
		if err != nil {
			t.Fatal(err)
		}
		if got := inside(c.value); got != c.want {
			t.Errorf("%q in %s = %v, want %v", c.value, c.interval, got, c.want)
		}
	}
	if _, err := stringInterval("SSN"); err == nil {
		t.Error("an interval without bounds was accepted")
	}
}

func TestSoundnessCheckCatchesAContradictedFact(t *testing.T) {
	body := func(typ string) []byte {
		return []byte(`{"version":2,"mode":"forward","rowCount":1,` +
			`"extensional":{"columns":[{"name":"Id"},{"name":"Type"}],"rows":[["SSN100","` + typ + `"]]},` +
			`"facts":[{"attr":"CLASS.Type","interval":"[SSN..SSN]","derived":true}]}`)
	}
	if err := checkSound(body("SSN"), 1); err != nil {
		t.Errorf("a sound answer was rejected: %v", err)
	}
	if err := checkSound(body("SSBN"), 1); err == nil {
		t.Error("a row outside a derived interval was accepted")
	}
	if err := checkSound(body("SSN"), 2); err == nil {
		t.Error("a body with fewer rows than its rowCount was accepted")
	}
}

// run performs one test-sized run and returns its result line.
func run(t *testing.T, w *workload, seed int64, traced bool, out string) *result {
	t.Helper()
	r := &runner{w: w, size: testSize, seed: seed, seconds: testSeconds, outDir: out}
	res, err := r.run(traced)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// repeatable are the counts of the serial passes: the same seed must
// give the same values, because later changes may rest a claim on them.
var repeatable = []string{
	"core.plan_cache_hit_ratio", "exec.rows_out_per_op", "exec.full_scans", "exec.index_scans",
	"exec.index_fallbacks", "infer.rules_served", "server.resp_bytes_per_op", "maintain.stale_rules",
	"wal.bytes_per_user_byte", "wal.records", "storage.checkpoints",
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up eight stacks")
	}
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			res := run(t, w, 1, false, out)
			if len(res.Metrics) != len(bj.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(bj.EndToEnd))
			}
			for _, d := range bj.EndToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
					t.Errorf("%s: got %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}

			first := run(t, w, 1, true, out)
			if len(first.Metrics) != len(bj.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json declares %d", len(first.Metrics), len(bj.PerLayer))
			}
			for _, d := range bj.PerLayer {
				if m, ok := first.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
				}
			}
			second := run(t, w, 1, true, out)
			for _, name := range repeatable {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s: %v, then %v on the same seed", name, a, b)
				}
			}

			// The trace file is there and the beds are gone.
			entries, err := os.ReadDir(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != "trace-"+w.name+".json" {
				t.Errorf("run left %v behind, want only the trace file", entries)
			}
			data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf struct{ Spans []span }
			if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 {
				t.Errorf("trace file: %d spans, err %v", len(tf.Spans), err)
			}
			for _, s := range tf.Spans {
				if s.EndUS < s.StartUS || (s.Parent != 0 && tf.Spans[s.Parent-1].Op != s.Op) {
					t.Fatalf("span %+v ends before it starts or belongs to another request than its parent", s)
				}
			}
		})
	}
}
