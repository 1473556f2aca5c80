package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"intensional/internal/core"
)

// runner performs one run of one workload.
type runner struct {
	w       *workload
	size    sizing
	seed    int64
	seconds time.Duration
	outDir  string // every file the run writes lives below it
	tally   tally
	beds    int // beds made so far, for directory names
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupTimes is what one set-up measured.
type setupTimes struct{ total, induce, bootstrap float64 } // seconds

// setup stands up a fresh bed: generate, save, open durably, listen,
// induce over HTTP, checkpoint, bootstrap the follower if the workload
// has one, and a fixed count of warm-up requests. All of it is setup_s.
func (r *runner) setup() (b *bed, cl *client, t setupTimes, err error) {
	start := time.Now()
	r.beds++
	b = &bed{dir: filepath.Join(r.outDir, fmt.Sprintf("bed-%d-%d", os.Getpid(), r.beds))}
	defer func() {
		if err != nil {
			err = errors.Join(err, b.close())
		}
	}()
	if err = os.MkdirAll(b.dir, 0o755); err != nil {
		return
	}
	cat, d, m, err := generate(r.size, r.seed)
	if err != nil {
		return
	}
	b.m = m
	if err = core.New(cat, d).Save(b.dbDir()); err != nil {
		return
	}
	if err = b.openLeader(r.w.checkpointBytes); err != nil {
		return
	}
	for id := range b.streams {
		b.streams[id] = newStream(m, r.w, r.seed, id)
	}
	cl = newClient(b, &r.tally, streamSeed(r.seed, r.w, streamWarm))
	cl.answered = map[string]bool{}

	t0 := time.Now()
	status, err := cl.post(b.leader.url+"/induce", struct {
		Nc int `json:"nc"`
	}{2})
	if err != nil || status != http.StatusOK {
		err = fmt.Errorf("induce: status %d, err %v: %.200s", status, err, cl.body.Bytes())
		return
	}
	t.induce = time.Since(t0).Seconds()
	if err = b.leader.sys.Checkpoint(); err != nil {
		return
	}
	if r.w.replicated {
		var took time.Duration
		if took, err = b.startFollower(); err != nil {
			return
		}
		t.bootstrap = took.Seconds()
	}
	for i := 0; i < r.size.warmOps; i++ {
		o := b.streams[streamWarm].next()
		cl.do(&o)
	}
	cl.reset()
	t.total = time.Since(start).Seconds()
	return
}

// phase is what a timed phase measured.
type phase struct {
	elapsed           float64 // seconds
	queryMS, mutateMS []float64
	lagMS             []float64
	ops, rowsWritten  int
	mem0, mem1        runtime.MemStats
}

// load drives the bed closed-loop from two clients for d.
func (r *runner) load(b *bed, d time.Duration) *phase {
	ph := &phase{}
	clients := []*client{
		newClient(b, &r.tally, streamSeed(r.seed, r.w, streamClient0)),
		newClient(b, &r.tally, streamSeed(r.seed, r.w, streamClient1)),
	}
	// On the replicated workload a third goroutine, parked except for a
	// moment per write, times leader ack → visible on the follower.
	var lagDone chan struct{}
	var shippedCh chan shipped
	if b.follower != nil {
		// Sized so the writer never waits on the observer: far more
		// than the batches a run can acknowledge.
		shippedCh = make(chan shipped, 1<<16)
		lagDone = make(chan struct{})
		fsys := b.follower.sys
		go func() {
			defer close(lagDone)
			for s := range shippedCh {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				err := fsys.WaitForSeq(ctx, s.seq)
				cancel()
				if err != nil {
					r.tally.fail("write w%d never reached the follower: %v", s.seq, err)
					continue
				}
				ph.lagMS = append(ph.lagMS, float64(time.Since(s.acked))/float64(time.Millisecond))
			}
		}()
		clients[0].shipped, clients[1].shipped = shippedCh, shippedCh
	}

	runtime.GC()
	runtime.ReadMemStats(&ph.mem0)
	// The phase lasts d. Only where a host is so slow that d leaves
	// fewer samples than the workload's percentiles need does it run on,
	// until it has them (or a minute has passed): a run on a slow host
	// should report slow numbers, not fail for want of samples.
	wantQueries, wantMutations := samplesFor(r.w.queryTail), 0
	if r.w.writes {
		wantMutations = samplesFor(mutateTail)
	}
	stop := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(stop)
		time.Sleep(d)
		for time.Since(start) < d+time.Minute {
			if clients[0].queries.Load()+clients[1].queries.Load() >= int64(wantQueries) &&
				clients[0].mutations.Load()+clients[1].mutations.Load() >= int64(wantMutations) {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, s *stream) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				o := s.next()
				c.do(&o)
			}
		}(c, b.streams[i])
	}
	wg.Wait()
	ph.elapsed = time.Since(start).Seconds()
	runtime.ReadMemStats(&ph.mem1)
	if shippedCh != nil {
		close(shippedCh)
		<-lagDone
	}
	for _, c := range clients {
		ph.queryMS = append(ph.queryMS, c.queryMS...)
		ph.mutateMS = append(ph.mutateMS, c.mutateMS...)
		ph.rowsWritten += c.rowsWritten
		c.close()
	}
	ph.ops = len(ph.queryMS) + len(ph.mutateMS)
	return ph
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Endpoints map[string]struct {
		Requests uint64 `json:"requests"`
	} `json:"endpoints"`
	Server struct {
		QueueFull    uint64 `json:"rejectedQueueFull"`
		QueueTimeout uint64 `json:"rejectedQueueTimeout"`
		Panics       uint64 `json:"panicsRecovered"`
	} `json:"server"`
}

// scrape fetches a node's /metrics and fails the run if the server
// refused or lost a request: two closed-loop clients must never fill a
// 64-slot server.
func (r *runner) scrape(cl *client, n *node) serverMetrics {
	var sm serverMetrics
	resp, err := cl.hc.Get(n.url + "/metrics")
	if err != nil {
		r.tally.fail("GET /metrics: %v", err)
		return sm
	}
	err = json.NewDecoder(resp.Body).Decode(&sm)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.tally.fail("GET /metrics: %v", err)
	}
	if s := sm.Server; s.QueueFull+s.QueueTimeout+s.Panics != 0 {
		r.tally.fail("server refused or lost requests: %+v", s)
	}
	return sm
}

// checkIdentical waits until the follower has applied everything the
// leader has committed, then sends the same statements to both and
// compares the answers byte for byte.
func (r *runner) checkIdentical(b *bed, cl *client) {
	seq := b.leader.sys.WalSeq()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.follower.sys.WaitForSeq(ctx, seq); err != nil {
		r.tally.fail("follower stuck at w%d, leader at w%d: %v", b.follower.sys.WalSeq(), seq, err)
		return
	}
	ops := []op{b.m.qTypeJoin(b.m.types[0].Type, "combined")}
	for _, ci := range b.m.reserved[:4] {
		ops = append(ops, b.m.qClass(ci))
	}
	for i := range ops {
		o := ops[i]
		o.node = onLeader
		if !cl.do(&o) {
			continue
		}
		want := append([]byte(nil), cl.body.Bytes()...)
		o.node = onFollower
		if cl.do(&o) && string(want) != cl.body.String() {
			r.tally.fail("leader and follower answers differ at w%d: %s", seq, o.sql)
		}
	}
}

// recovery is what the recovery step measured.
type recovery struct {
	mutateMS     []float64
	writeSeconds float64
	recoverS     float64
	// Filled on a traced run.
	loadMS, scanMS float64
	records        int
}

// recoveryStep is the fixed-count end of every run, so that faster
// writes in the timed phase cannot make recovery look slower:
// checkpoint, reopen without auto-checkpoint, acknowledge exactly
// tailRows rows, close without a checkpoint, time OpenDurable, and check
// that every row the run was ever acknowledged is there exactly once.
func (r *runner) recoveryStep(b *bed, cl *client, traced bool) (*recovery, error) {
	if err := b.leader.sys.Checkpoint(); err != nil {
		return nil, err
	}
	if err := errors.Join(b.stopFollower(), b.stopLeader()); err != nil {
		return nil, err
	}
	if err := b.openLeader(0); err != nil {
		return nil, err
	}
	cl.reset()
	rec := &recovery{}
	start := time.Now()
	for rows := 0; rows < r.size.tailRows; rows += r.w.tailBatch {
		o := b.streams[streamWarm].insertBatch(r.w.tailBatch)
		cl.do(&o)
		rec.records++
	}
	rec.writeSeconds = time.Since(start).Seconds()
	rec.mutateMS = cl.mutateMS
	if err := b.stopLeader(); err != nil {
		return nil, err
	}
	if traced {
		if err := rec.decompose(b); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	sys, err := core.OpenDurable(b.dbDir(), core.DurableOptions{})
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	rec.recoverS = time.Since(start).Seconds()
	live := map[string]int{}
	for _, s := range b.streams {
		for _, row := range s.live {
			live[row.id] = row.class
		}
	}
	r.tally.attempted.Add(1)
	if err := b.m.verifyFinal(sys.Catalog(), live); err != nil {
		r.tally.fail("after recovery: %v", err)
	}
	return rec, sys.Close()
}

// untraced is a --trace 0 run: several set-ups, the timed phase, the
// recovery step; the end-to-end metrics.
func (r *runner) untraced() (map[string]float64, error) {
	var b *bed
	var cl *client
	var setupS, induceS []float64
	for i := 0; i < r.size.setups; i++ {
		if b != nil {
			cl.close()
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		var t setupTimes
		var err error
		if b, cl, t, err = r.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, t.total)
		induceS = append(induceS, t.induce)
	}
	defer func() {
		cl.close()
		if err := b.close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: cleanup:", err)
		}
	}()

	ph := r.load(b, r.seconds)
	r.scrape(cl, b.leader)
	if b.follower != nil {
		r.scrape(cl, b.follower)
		r.checkIdentical(b, cl)
	}
	rec, err := r.recoveryStep(b, cl, false)
	if err != nil {
		return nil, err
	}

	got := map[string]float64{
		"setup_s":      median(setupS),
		"induce_s":     median(induceS),
		"query_p50_ms": median(ph.queryMS),
		"ops_per_s":    float64(ph.ops) / ph.elapsed,
		"recover_s":    rec.recoverS,
	}
	if got["query_tail_ms"], err = percentile(ph.queryMS, r.w.queryTail); err != nil {
		return nil, fmt.Errorf("query_tail_ms: %w", err)
	}
	// A workload that writes reports its own writes; one that only
	// reads reports the recovery step's, on a server otherwise idle.
	mutateMS, rows, secs := ph.mutateMS, float64(ph.rowsWritten), ph.elapsed
	if !r.w.writes {
		mutateMS, rows, secs = rec.mutateMS, float64(r.size.tailRows), rec.writeSeconds
	}
	got["mutate_p50_ms"] = median(mutateMS)
	if got["mutate_tail_ms"], err = percentile(mutateMS, mutateTail); err != nil {
		return nil, fmt.Errorf("mutate_tail_ms: %w", err)
	}
	got["write_rows_per_s"] = rows / secs
	return got, nil
}

// run performs the run and assembles the result line.
func (r *runner) run(traced bool) (*result, error) {
	defs, measure := endToEnd, r.untraced
	if traced {
		defs, measure = perLayer, r.traced
	}
	got, err := measure()
	if err != nil {
		return nil, err
	}
	metrics, err := collect(defs, got)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: r.tally.attempted.Load(),
		Failed:    r.tally.failed.Load(),
		Metrics:   metrics,
	}
	res.Correct = res.Failed == 0
	return res, nil
}
