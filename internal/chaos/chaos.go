// Package chaos is the randomized crash-recovery harness for the
// durable write path: a seeded loop of mutate → inject fault → kill →
// reopen, asserting after every cycle the two invariants the design
// promises and a unit test cannot sweep broadly enough to trust:
//
//  1. Durability: every acknowledged batch is recoverable. A mutation
//     whose ApplyBatch returned nil is visible after any crash; one
//     that returned an error left no trace.
//  2. Soundness: no serving rule is contradicted by the data. Stale
//     rules are withheld from inference, so a recovered system never
//     answers intensionally from a rule its own rows refute.
//
// Faults are injected through the same fault.FS seam the unit tests
// use — a random operation number starts a "disk death" (every file
// operation from there on fails, optionally with torn writes), and
// fault.Injector.Shutdown force-closes the files mid-flight like a
// process kill. Everything is driven by one math/rand source, so a
// failing run is reproducible from its seed alone.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"intensional/internal/core"
	"intensional/internal/fault"
	"intensional/internal/induct"
	"intensional/internal/maintain"
	"intensional/internal/rules"
	"intensional/internal/shipdb"
)

// Config parameterises a chaos run.
type Config struct {
	// Iters is how many crash-recovery cycles to run.
	Iters int
	// Seed drives every random choice; the same seed replays the same
	// run exactly.
	Seed int64
	// CheckpointBytes is the auto-checkpoint threshold handed to the
	// system under test (default 32 KiB, small enough to exercise
	// checkpoints under fault).
	CheckpointBytes int64
	// Logf, when non-nil, receives per-iteration progress lines.
	Logf func(format string, args ...any)
}

// Report summarises a completed run.
type Report struct {
	Iters      int      // cycles completed
	Acked      int      // acknowledged mutations across the run
	Refused    int      // mutations refused by an injected fault
	Checkpoint int      // explicit checkpoints attempted
	Kills      int      // follower kill/restarts (replica scenario)
	Partitions int      // network partitions / mid-transfer link drops
	Handovers  int      // live leader swaps (reconfig scenario)
	Violations []string // invariant breaches; empty means the run passed
}

// Run executes cfg.Iters crash-recovery cycles against a fresh durable
// ship database created under dir. It returns an error only for
// harness-level failures (e.g. the fixture cannot be built); invariant
// breaches go in Report.Violations.
func Run(dir string, cfg Config) (*Report, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 200
	}
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = 32 << 10
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	if err := buildFixture(dir); err != nil {
		return nil, fmt.Errorf("chaos: build fixture: %w", err)
	}

	rep := &Report{}
	// markers is the ground truth recovery is checked against: which
	// chaos markers an acknowledged batch put in (or removed from)
	// SONAR, and which are indeterminate after a failed-fsync refusal.
	// Guarded by nothing: the harness is single-goroutine.
	markers := &markerSet{present: map[string]bool{}, indet: map[string]bool{}}

	for i := 0; i < cfg.Iters; i++ {
		if err := cycle(dir, cfg, rng, logf, i, markers, rep); err != nil {
			return nil, err
		}
		rep.Iters++
		if len(rep.Violations) > 0 {
			break // the run is already a failure; stop at first breach
		}
	}
	sort.Strings(rep.Violations)
	logf("chaos: %d cycles, %d acked, %d refused, %d checkpoints, %d violations",
		rep.Iters, rep.Acked, rep.Refused, rep.Checkpoint, len(rep.Violations))
	return rep, nil
}

// cycle is one mutate → fault → kill → reopen round.
func cycle(dir string, cfg Config, rng *rand.Rand, logf func(string, ...any), i int, markers *markerSet, rep *Report) error {
	in := fault.NewInjector(fault.OS)
	sys, err := core.OpenDurable(dir, core.DurableOptions{
		FS:              in,
		CheckpointBytes: cfg.CheckpointBytes,
	})
	if err != nil {
		// No fault is armed yet; failing to open here is a harness bug,
		// not an injected crash.
		return fmt.Errorf("chaos: iteration %d: open before faults: %w", i, err)
	}

	// Arm the disk death: some file operation in the near future fails,
	// and every one after it too. Half the time the dying writes are
	// torn — a prefix reaches the disk.
	in.FailFrom(in.Ops()+1+rng.Intn(40), fault.ErrInjected)
	if rng.Intn(2) == 0 {
		in.TornWrites(true)
	}

	mutate(sys, rng, logf, i, markers, rep)

	// Kill the process: every tracked file is force-closed mid-flight.
	in.Shutdown()

	// Recovery on the real filesystem must always succeed and must
	// satisfy both invariants.
	v, err := core.OpenDurable(dir, core.DurableOptions{CheckpointBytes: cfg.CheckpointBytes})
	if err != nil {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("iteration %d: recovery failed: %v", i, err))
		return nil
	}
	defer v.Close() //ilint:allow errdrop — verify handle; nothing to do about a close failure
	checkMarkers(v, i, markers, rep)
	checkRules(v, i, rep)

	// Occasionally checkpoint the recovered state so the WAL stays
	// bounded across the run without hiding replay from most cycles.
	if rng.Intn(4) == 0 {
		rep.Checkpoint++
		if err := v.Checkpoint(); err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("iteration %d: clean checkpoint failed: %v", i, err))
		}
	}
	return nil
}

// mutate applies a random batch of work to the faulted system. An
// acknowledged mutation updates the expected marker set; the first
// refusal stops the phase — the disk is dead, and the write path's own
// degraded mode takes over from there.
func mutate(sys *core.System, rng *rand.Rand, logf func(string, ...any), i int, markers *markerSet, rep *Report) {
	ctx := context.Background()
	steps := 1 + rng.Intn(6)
	for j := 0; j < steps; j++ {
		var stmt string
		var marker string
		var insert bool
		switch rng.Intn(10) {
		case 0:
			// Contradict an induced rule, so maintenance has something
			// to withhold and re-induce.
			stmt = fmt.Sprintf(`INSERT INTO CLASS VALUES ('98%02d', 'Chaos-%d-%d', 'SSN', 16600)`, i%100, i, j)
		case 1:
			// Remove a marker a previous cycle committed.
			if m := markers.pick(rng); m != "" {
				marker, insert = m, false
				stmt = fmt.Sprintf(`DELETE FROM SONAR WHERE Sonar = '%s'`, m)
				break
			}
			fallthrough
		default:
			marker, insert = fmt.Sprintf("CH-%d-%d", i, j), true
			stmt = fmt.Sprintf(`INSERT INTO SONAR VALUES ('%s', 'Chaos')`, marker)
		}
		res, err := sys.ApplyBatch(ctx, []string{stmt})
		if err != nil {
			logf("chaos: iter %d step %d REFUSED %s: %v", i, j, stmt, err)
			rep.Refused++
			if marker != "" && errors.Is(err, core.ErrLogIndeterminate) {
				// The record's bytes may have reached the log before the
				// fsync failed, so this batch can legitimately surface as
				// committed after the crash. Recovery observes which way
				// it went and pins the expectation from there.
				markers.indet[marker] = true
			}
			return
		}
		logf("chaos: iter %d step %d acked %s (checkpointed=%v warn=%q)", i, j, stmt, res.Checkpointed, res.CheckpointErr)
		rep.Acked++
		if marker != "" {
			markers.present[marker] = insert
		}
		if rng.Intn(8) == 0 {
			// Maintenance under fault: a failure here only matters if it
			// breaks an invariant, which recovery checks. A pass that
			// installs is checked live against the data it ran over.
			if _, err := sys.Maintain(ctx, induct.Options{Nc: 3}); err != nil {
				rep.Refused++
				return
			}
			checkRules(sys, i, rep)
		}
		if rng.Intn(10) == 0 {
			rep.Checkpoint++
			if err := sys.Checkpoint(); err != nil {
				rep.Refused++
				return
			}
		}
	}
}

// markerSet is the harness's ground truth for SONAR chaos markers.
type markerSet struct {
	// present maps marker → expected visibility after recovery.
	present map[string]bool
	// indet holds markers whose last mutation ended in
	// core.ErrLogIndeterminate — either outcome is legal until the next
	// recovery observes which one the disk kept.
	indet map[string]bool
}

// pick returns a random marker currently expected present and not
// indeterminate.
func (ms *markerSet) pick(rng *rand.Rand) string {
	var live []string
	for m, p := range ms.present {
		if p && !ms.indet[m] {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		return ""
	}
	sort.Strings(live) // deterministic choice for a given seed
	return live[rng.Intn(len(live))]
}

// checkMarkers asserts the durability invariant: every acknowledged
// insert is present exactly once, every acknowledged delete is absent.
// Indeterminate markers are allowed either outcome once; the observed
// state becomes the expectation.
func checkMarkers(sys *core.System, i int, markers *markerSet, rep *Report) {
	r, err := sys.Catalog().Get(shipdb.Sonar)
	if err != nil {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("iteration %d: recovered catalog lost SONAR: %v", i, err))
		return
	}
	col, ok := r.Schema().Index("Sonar")
	if !ok {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("iteration %d: recovered SONAR lost its key column", i))
		return
	}
	counts := map[string]int{}
	for _, row := range r.Rows() {
		counts[row[col].Str()]++
	}
	names := make([]string, 0, len(markers.present))
	for m := range markers.present {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		got := counts[m]
		if markers.indet[m] {
			// Either outcome is legal, but never duplication; pin the
			// expectation to what the disk kept.
			if got > 1 {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("iteration %d: indeterminate marker %s: %d copies after recovery", i, m, got))
			}
			markers.present[m] = got > 0
			delete(markers.indet, m)
			continue
		}
		want := 0
		if markers.present[m] {
			want = 1
		}
		if got != want {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("iteration %d: marker %s: %d copies after recovery, want %d", i, m, got, want))
		}
	}
}

// checkRules records a violation of iteration i for each line
// Contradicted reports.
func checkRules(sys *core.System, i int, rep *Report) {
	for _, v := range Contradicted(sys) {
		rep.Violations = append(rep.Violations, fmt.Sprintf("iteration %d: %s", i, v))
	}
}

// Contradicted checks the soundness invariant: no rule the system
// serves has a counterexample among its own rows. It returns one line
// per violating rule. Only single-relation rules are row-checkable
// without a join; that covers every rule the ship fixture induces.
func Contradicted(sys *core.System) []string {
	full, maint, _ := sys.RuleStatus()
	var out []string
	for _, r := range full.Rules() {
		if maint.Info(r.ID).Status == maintainStale {
			continue // withheld from inference; allowed to be contradicted
		}
		if v := ruleCounterexample(sys, r); v != "" {
			out = append(out, fmt.Sprintf("serving rule %d (%s) contradicted: %s", r.ID, r, v))
		}
	}
	return out
}

// maintainStale aliases the status constant so Contradicted reads plainly.
const maintainStale = maintain.Stale

// ruleCounterexample scans the rule's relation for a row satisfying
// every premise clause but violating the consequence. Returns "" when
// none exists or the rule spans relations (not row-checkable here).
func ruleCounterexample(sys *core.System, r *rules.Rule) string {
	rel := r.RHS.Attr.Relation
	for _, c := range r.LHS {
		if !strings.EqualFold(c.Attr.Relation, rel) {
			return ""
		}
	}
	data, err := sys.Catalog().Get(rel)
	if err != nil {
		return fmt.Sprintf("relation %s unreadable: %v", rel, err)
	}
	sch := data.Schema()
	colOf := func(attr string) (int, bool) { return sch.Index(attr) }
	for _, row := range data.Rows() {
		ok := true
		for _, c := range r.LHS {
			idx, found := colOf(c.Attr.Attribute)
			if !found || !c.Contains(row[idx]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		idx, found := colOf(r.RHS.Attr.Attribute)
		if !found {
			return fmt.Sprintf("consequence column %s missing", r.RHS.Attr)
		}
		if !r.RHS.Contains(row[idx]) {
			return fmt.Sprintf("row %v", row)
		}
	}
	return ""
}

// buildFixture saves a ship database with induced rules under dir.
func buildFixture(dir string) error {
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		return err
	}
	sys := core.New(cat, d)
	if _, err := sys.Induce(induct.Options{Nc: 3}); err != nil {
		return err
	}
	return sys.Save(dir)
}
