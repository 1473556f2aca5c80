// Command bench is the repository's benchmark: a seeded, closed-loop
// load driver over the stack cmd/iqpd wires, with an oracle on every
// answer and a layer-by-layer traced mode. See README.md.
//
//	bench --workload read_adhoc --seed 1 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runSeconds is the length of the timed phase: BENCHMARK.json's
// run_seconds, which the driver passes as --seconds on every run.
const runSeconds = 20

func main() {
	name := flag.String("workload", "", "read_cached, read_adhoc, mixed_rw or ingest_replicated")
	seed := flag.Int64("seed", 1, "seed of the generated data and request streams")
	seconds := flag.Float64("seconds", runSeconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and bench/out/trace-<workload>.json")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// The sandbox has two cores; on a bigger machine the run would
	// otherwise change shape with the core count.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	r := &runner{
		w: w, size: fullSize, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		outDir:  filepath.Join("bench", "out"),
	}
	res, err := r.run(*trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
