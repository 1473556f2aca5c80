package core_test

// Tests of the one rule-install path: Induce and Maintain re-induce
// under the writer lock and commit through ApplyBatch's commit step, and
// Save and BootstrapArchive take their rule relations from the serving
// rule set.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"intensional/internal/answer"
	"intensional/internal/chaos"
	"intensional/internal/core"
	"intensional/internal/fault"
	"intensional/internal/induct"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/shipdb"
	"intensional/internal/synth"
)

// TestSaveDropsStaleRules: when a write stales every rule, the serving
// set is empty, and a checkpoint must persist that empty set — not the
// rule relations the last induction stored. Otherwise the contradicted
// rules come back after a restart, and semantic optimisation drops the
// very row that contradicted them.
func TestSaveDropsStaleRules(t *testing.T) {
	s, dir := durableShip(t, false, core.DurableOptions{})
	set, err := s.Induce(induct.Options{Nc: 8})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("Nc=8 induced no rules")
	}
	res, err := s.Apply(context.Background(), `INSERT INTO CLASS VALUES ('0202X', 'Bad', 'SSBN', 3000)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale != set.Len() || s.Rules().Len() != 0 {
		t.Fatalf("stale %d of %d, serving %d; want every rule stale", res.Stale, set.Len(), s.Rules().Len())
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := core.OpenDurable(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Rules().Len(); n != 0 {
		t.Errorf("reopened system serves %d rules, want 0:\n%s", n, r.Rules())
	}
	resp, err := r.Query(`SELECT CLASS.ClassName, CLASS.Type FROM CLASS WHERE CLASS.Displacement < 4000`, answer.Combined)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Extensional.String(), "Bad") {
		t.Errorf("the contradicting row is missing from the answer:\n%s", resp.Extensional)
	}
}

// TestCheckpointLeavesPublishedCatalog: a published snapshot is
// immutable, so saving one must not store rule relations into its
// catalog.
func TestCheckpointLeavesPublishedCatalog(t *testing.T) {
	s, _ := durableShip(t, true, core.DurableOptions{})
	if _, err := s.Apply(context.Background(), contradictor); err != nil {
		t.Fatal(err)
	}
	cat, version := s.Catalog(), s.Version()
	before, err := cat.Get(rules.RuleRelName)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := cat.Get(rules.RuleRelName)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("checkpoint replaced the published snapshot's %s (%d rows -> %d) at version %d",
			rules.RuleRelName, before.Len(), after.Len(), version)
	}
	if s.Version() != version {
		t.Errorf("checkpoint moved the version %d -> %d", version, s.Version())
	}
}

// TestMaintainInstallsUnderSteadyWrites: a maintenance pass must install
// while a writer commits in a tight loop, and what it installs must hold
// on the data it installed over. The fleet is large enough that every
// pass outlasts many writes.
func TestMaintainInstallsUnderSteadyWrites(t *testing.T) {
	// The writer fills a relation no rule scheme reads, so its inserts
	// stale nothing and the pass must end all-valid.
	cat := synth.Fleet(synth.FleetConfig{ClassesPerType: 10, ShipsPerClass: 50, Seed: 1})
	if _, err := cat.Create("WRITES", relation.MustSchema(relation.Column{Name: "N", Type: relation.TInt})); err != nil {
		t.Fatal(err)
	}
	d, err := synth.FleetDictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	s := core.New(cat, d)
	opts := induct.Options{Nc: 3}
	if _, err := s.Induce(opts); err != nil {
		t.Fatal(err)
	}
	// A second ship under an existing Id, in another class, stales the
	// rule covering that Id.
	ships, err := cat.Get(synth.FleetShip)
	if err != nil {
		t.Fatal(err)
	}
	first, last := ships.Row(0), ships.Row(ships.Len()-1)
	stmt := fmt.Sprintf(`INSERT INTO SHIP VALUES ('%s', 'Twin', '%s')`, first[0].Str(), last[2].Str())
	if res, err := s.Apply(context.Background(), stmt); err != nil || res.Stale == 0 {
		t.Fatalf("%s: stale %v, err %v; want stale rules", stmt, res, err)
	}

	stop, writing := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, err := s.Apply(context.Background(), fmt.Sprintf(`INSERT INTO WRITES VALUES (%d)`, i))
			if i == 0 {
				close(writing)
			}
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	<-writing
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	res, err := s.Maintain(ctx, opts)
	cancel()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Maintain under steady writes: %v", err)
	}
	if len(res.Schemes) == 0 {
		t.Fatal("Maintain re-induced nothing")
	}
	_, maint, _ := s.RuleStatus()
	if st, ref := maint.Counts(); st != 0 || ref != 0 {
		t.Errorf("after Maintain: %d stale, %d refinable, want all valid", st, ref)
	}
	for _, v := range chaos.Contradicted(s) {
		t.Error(v)
	}
}

// TestDegradedRefusesRuleInstalls: read-only degraded mode refuses every
// commit, rule installs included — Induce, Maintain and the
// auto-maintain worker alike — and none of them touches the WAL.
func TestDegradedRefusesRuleInstalls(t *testing.T) {
	in := fault.NewInjector(fault.OS)
	s, _ := durableShip(t, true, core.DurableOptions{FS: in, DegradeAfter: 1})
	if _, err := s.Apply(context.Background(), contradictor); err != nil {
		t.Fatal(err)
	}
	// One cleanly rewound write failure degrades the system; the disk
	// then works again, so only the degraded state can refuse a commit.
	in.FailOpFrom(fault.OpWrite, ".wal", 1, fault.ErrInjected)
	if _, err := s.Apply(context.Background(), `INSERT INTO SONAR VALUES ('ZZ-1', 'Active')`); !errors.Is(err, core.ErrLogFailed) {
		t.Fatalf("apply with failing wal write = %v, want ErrLogFailed", err)
	}
	if s.Degraded() == nil {
		t.Fatal("not degraded")
	}
	in.Clear()
	size, version := s.WalSize(), s.Version()

	opts := induct.Options{Nc: 3}
	if _, err := s.Induce(opts); !errors.Is(err, core.ErrReadOnly) {
		t.Errorf("Induce while degraded = %v, want ErrReadOnly", err)
	}
	if _, err := s.Maintain(context.Background(), opts); !errors.Is(err, core.ErrReadOnly) {
		t.Errorf("Maintain while degraded = %v, want ErrReadOnly", err)
	}
	s.StartAutoMaintain(opts)
	defer s.StopAutoMaintain()
	s.KickAutoMaintain()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runs, errs := s.AutoMaintainStats()
		if runs+errs > 0 {
			if runs != 0 || errs != 1 {
				t.Errorf("auto-maintain while degraded: %d runs, %d errors; want 0 runs, 1 error", runs, errs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-maintain never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.WalSize() != size || s.Version() != version {
		t.Errorf("refused installs changed the state: wal %d -> %d bytes, version %d -> %d",
			size, s.WalSize(), version, s.Version())
	}
}

// TestInduceNumbersLikeInduceAll: Induce installs exactly what the
// inductive learning subsystem's InduceAll returns, numbers included.
func TestInduceNumbersLikeInduceAll(t *testing.T) {
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	opts := induct.Options{Nc: 3, Workers: 2}
	want, err := induct.New(d, opts).InduceAll()
	if err != nil {
		t.Fatal(err)
	}
	s := shipSystem(t)
	got, err := s.Induce(opts)
	if err != nil {
		t.Fatal(err)
	}
	// A second pass replaces the first rule base, numbering from 1 again.
	if got, err = s.Induce(opts); err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || want.Len() != 18 {
		t.Fatalf("Induce gave %d rules, InduceAll %d; want 18", got.Len(), want.Len())
	}
	for i, r := range got.Rules() {
		w := want.Rules()[i]
		if r.ID != w.ID || r.ID != i+1 || r.String() != w.String() || r.Support != w.Support {
			t.Errorf("rule %d: Induce R%d %s (support %d), InduceAll R%d %s (support %d)",
				i, r.ID, r, r.Support, w.ID, w, w.Support)
		}
	}
}
