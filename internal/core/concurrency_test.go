package core_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"intensional/internal/answer"
	"intensional/internal/induct"
)

const forwardQuery = `SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE
	FROM SUBMARINE, CLASS
	WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`

const backwardQuery = `SELECT SUBMARINE.NAME, SUBMARINE.CLASS FROM SUBMARINE, CLASS
	WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = "SSBN"`

// TestQueryInduceHammer drives Query from many goroutines while Induce
// repeatedly installs new snapshots — the core-layer analogue of the
// catalog-hammering test from the parallel-induction PR. Run under
// -race it verifies the snapshot-swap concurrency contract; the answer
// checks verify every reader saw a consistent state.
func TestQueryInduceHammer(t *testing.T) {
	s := shipSystem(t)
	if _, err := s.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const queriesPerReader = 40
	const induceRounds = 6

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < queriesPerReader; j++ {
				sql, want := forwardQuery, 2
				if (i+j)%2 == 1 {
					sql, want = backwardQuery, 7
				}
				// Readers ask one statement in different modes at once,
				// racing on the statement's shared cache entry.
				mode := []answer.Mode{answer.Combined, answer.ForwardOnly, answer.BackwardOnly}[i%3]
				resp, err := s.Query(sql, mode)
				if err != nil {
					errs <- err
					return
				}
				if resp.Extensional.Len() != want {
					t.Errorf("reader %d: extensional = %d rows, want %d", i, resp.Extensional.Len(), want)
					return
				}
				if resp.Version == 0 {
					t.Errorf("reader %d: response has no version stamp", i)
					return
				}
			}
		}(i)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < induceRounds; r++ {
			if _, err := s.Induce(induct.Options{Nc: 3}); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// 1 initial + 1 setup induce + induceRounds more.
	if got, want := s.Version(), uint64(2+induceRounds); got != want {
		t.Errorf("final version = %d, want %d", got, want)
	}
}

// TestVersionAdvancesOnInduce pins the version counter semantics: 1 at
// construction, +1 per Induce, and the version stamped onto responses.
func TestVersionAdvancesOnInduce(t *testing.T) {
	s := shipSystem(t)
	if got := s.Version(); got != 1 {
		t.Fatalf("fresh system version = %d, want 1", got)
	}
	if _, err := s.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	if got := s.Version(); got != 2 {
		t.Fatalf("post-induce version = %d, want 2", got)
	}
	resp, err := s.Query(forwardQuery, answer.ForwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != 2 {
		t.Errorf("response version = %d, want 2", resp.Version)
	}
}

// TestQueryCachedPerSnapshot checks that a repeated query is served from
// the snapshot's cache (same response pointer), that the answer modes of
// one statement share a single execution and a single inference result,
// and that installing a new snapshot starts a fresh cache.
func TestQueryCachedPerSnapshot(t *testing.T) {
	s := shipSystem(t)
	if _, err := s.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	scans := func() int64 {
		st := s.PlannerStats()
		return st.FullScans + st.IndexScans
	}
	base := scans()
	r1, err := s.Query(forwardQuery, answer.ForwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	once := scans() - base
	if once == 0 {
		t.Fatal("first query scanned nothing")
	}
	r2, err := s.Query(forwardQuery, answer.ForwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("repeated query on one snapshot should hit the response cache")
	}
	// Same SQL, other modes: distinct responses over one execution and
	// one inference result.
	for _, mode := range []answer.Mode{answer.Combined, answer.BackwardOnly} {
		r, err := s.Query(forwardQuery, mode)
		if err != nil {
			t.Fatal(err)
		}
		if r == r1 {
			t.Errorf("mode %v must not share the forward response", mode)
		}
		if r.Inference != r1.Inference || r.Extensional != r1.Extensional {
			t.Errorf("mode %v re-derived or re-executed: inference shared %v, extensional shared %v",
				mode, r.Inference == r1.Inference, r.Extensional == r1.Extensional)
		}
	}
	if got := scans() - base; got != once {
		t.Errorf("three modes scanned %d access paths, want the one execution's %d", got, once)
	}
	if _, err := s.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	r4, err := s.Query(forwardQuery, answer.ForwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	if r4 == r1 {
		t.Error("new snapshot must not serve the old snapshot's cache")
	}
	if r4.Version == r1.Version {
		t.Errorf("versions should differ across induce: %d vs %d", r4.Version, r1.Version)
	}
}

// TestSnapshotIsolation verifies that references fetched before an
// Induce keep describing the old state while the system serves the new.
func TestSnapshotIsolation(t *testing.T) {
	s := shipSystem(t)
	oldRules := s.Rules()
	oldCat := s.Catalog()
	if oldRules.Len() != 0 {
		t.Fatalf("seed rules = %d", oldRules.Len())
	}
	set, err := s.Induce(induct.Options{Nc: 3})
	if err != nil {
		t.Fatal(err)
	}
	if oldRules.Len() != 0 {
		t.Error("old rule-set reference mutated by Induce")
	}
	if s.Rules().Len() != set.Len() {
		t.Errorf("new snapshot rules = %d, want %d", s.Rules().Len(), set.Len())
	}
	if s.Catalog() == oldCat {
		t.Error("Induce should install a cloned catalog, not mutate the old one in place")
	}
}

// TestQueryContextCancelled checks the stage-boundary deadline.
func TestQueryContextCancelled(t *testing.T) {
	s := shipSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryContext(ctx, forwardQuery, answer.ForwardOnly); err == nil {
		t.Error("cancelled context should fail the query")
	} else if !strings.Contains(err.Error(), "cancel") {
		t.Errorf("err = %v, want context cancellation", err)
	}
}
