package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"intensional/internal/answer"
	"intensional/internal/core"
	"intensional/internal/dict"
	"intensional/internal/induct"
	"intensional/internal/infer"
	"intensional/internal/query"
	"intensional/internal/replica"
	"intensional/internal/semopt"
	"intensional/internal/sqlparse"
	"intensional/internal/wal"
)

// span is one timed call into a layer's public function, made by the
// benchmark from outside the layer. Parent is the span of the request it
// belongs to (0 for the request itself); spans of one request share Op.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory and, per span name, the total time and
// call count the per-layer metrics are means of.
type tracer struct {
	epoch time.Time
	spans []span
	op    int
	sumUS map[string]float64
	calls map[string]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sumUS: map[string]float64{}, calls: map[string]int{}}
}

// span times fn as a child of parent and returns its duration in µs.
func (t *tracer) span(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		StartUS: float64(time.Since(t.epoch)) / float64(time.Microsecond),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.EndUS = float64(time.Since(t.epoch)) / float64(time.Microsecond)
	us := s.EndUS - s.StartUS
	t.sumUS[s.Name] += us
	t.calls[s.Name]++
	return us
}

// mean is the mean duration of the named span in µs, 0 if it never ran.
func (t *tracer) mean(name string) float64 {
	if t.calls[name] == 0 {
		return 0
	}
	return t.sumUS[name] / float64(t.calls[name])
}

// write stores the spans where a reader of the run can find them.
func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanCostUS measures what recording one span costs, on a throwaway
// tracer: the tracing overhead is this times the spans per request.
func spanCostUS() float64 {
	const n = 100000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.span("x", 0, func() {})
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / n
}

// plannerSum adds up the planner counters of every node of a bed.
func plannerSum(b *bed) core.PlannerStats {
	st := b.leader.sys.PlannerStats()
	if b.follower != nil {
		f := b.follower.sys.PlannerStats()
		st.FullScans += f.FullScans
		st.IndexScans += f.IndexScans
		st.IndexFallbacks += f.IndexFallbacks
		st.PlanCacheHits += f.PlanCacheHits
		st.PlanCacheMisses += f.PlanCacheMisses
	}
	return st
}

// serialPass replays the workload's seeded sample through HTTP from one
// client with tracing off. It supplies the counts — taken from the
// system's own counters, which only this pass leaves undisturbed — and
// the untraced latency the traced pass is checked against.
func (r *runner) serialPass(b *bed, cl *client, n int, got map[string]float64) (totalMS float64) {
	cl.reset()
	before := plannerSum(b)
	seq0 := b.leader.sys.WalSeq()
	for i := 0; i < n; i++ {
		o := b.streams[streamSample].next()
		cl.do(&o)
	}
	after := plannerSum(b)
	got["exec.full_scans"] = float64(after.FullScans - before.FullScans)
	got["exec.index_scans"] = float64(after.IndexScans - before.IndexScans)
	got["exec.index_fallbacks"] = float64(after.IndexFallbacks - before.IndexFallbacks)
	if lookups := (after.PlanCacheHits - before.PlanCacheHits) + (after.PlanCacheMisses - before.PlanCacheMisses); lookups > 0 {
		got["core.plan_cache_hit_ratio"] = float64(after.PlanCacheHits-before.PlanCacheHits) / float64(lookups)
	}
	if q := len(cl.queryMS); q > 0 {
		got["exec.rows_out_per_op"] = float64(cl.rowsRead) / float64(q)
	}
	got["server.resp_bytes_per_op"] = float64(cl.respBytes) / float64(n)
	got["wal.records"] = float64(b.leader.sys.WalSeq() - seq0)
	got["storage.checkpoints"] = float64(cl.checkpoints)
	full, st, _ := b.leader.sys.RuleStatus()
	stale, _ := st.Counts()
	got["maintain.stale_rules"] = float64(stale)
	got["infer.rules_served"] = float64(full.Len() - stale)
	for _, ms := range cl.queryMS {
		totalMS += ms
	}
	for _, ms := range cl.mutateMS {
		totalMS += ms
	}
	return totalMS
}

// tracedPass replays the same sample on an identical fresh bed, one
// request at a time, calling each layer's public functions from outside
// with a span around every call.
type tracedPass struct {
	r       *runner
	b       *bed
	cl      *client
	t       *tracer
	scratch *wal.Log
	// Record bytes the writes would log, over the statement bytes sent.
	walBytes, userBytes int64
	// Prepare contains calls the benchmark can only time by making them
	// again; its self time is a subtraction per request, and a median of
	// differences shrugs off the collection that lands in one of them.
	prepareSelfUS []float64
	// ApplyBatch's self time, the same way: the real write less its
	// replayed steps, per write.
	applyUS, applySelfUS []float64
}

// querySteps are the spans whose time blocks a query's reply (the round
// trip stands for the handler and the transport together); writeSteps
// are the steps inside core.apply_batch, replayed after it.
var (
	querySteps = []string{"core.prepare", "exec.run", "infer.derive", "answer.render", "http.roundtrip"}
	writeSteps = []string{"sqlparse.parse_dml", "query.apply_mutation", "maintain.apply", "dict.rebuild", "wal.append"}
)

// total is the time spent in the named spans, in µs.
func (t *tracer) total(names []string) float64 {
	var us float64
	for _, name := range names {
		us += t.sumUS[name]
	}
	return us
}

func answerMode(mode string) answer.Mode {
	switch mode {
	case "forward":
		return answer.ForwardOnly
	case "backward":
		return answer.BackwardOnly
	}
	return answer.Combined
}

// serveRecorded runs the node's handler on the request in-process.
func serveRecorded(n *node, path string, body []byte) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	n.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler answered %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	return nil
}

func (p *tracedPass) query(o *op, root int) error {
	n := p.b.node(o.node)
	sys := n.sys
	req := queryRequest{SQL: o.sql, Mode: o.mode}
	if o.useToken {
		req.Token = p.b.token()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	t := p.t
	if !p.cl.answered[answerKey(o)] {
		// What the system does for a statement it has not answered on
		// this snapshot, layer by layer.
		var prep *query.Prepared
		var res *infer.Result
		parse := t.span("sqlparse.parse", root, func() { _, err = sqlparse.Parse(core.NormalizeSQL(o.sql)) })
		if err != nil {
			return err
		}
		prepare := t.span("core.prepare", root, func() { prep, err = sys.Prepare(o.sql) })
		if err != nil {
			return err
		}
		analyze := t.span("semopt.analyze", root, func() {
			if prep.Analysis.Conjunctive {
				_, err = semopt.Analyze(prep.Analysis, sys.Dictionary())
			}
		})
		if err != nil {
			return err
		}
		p.prepareSelfUS = append(p.prepareSelfUS, prepare-parse-analyze)
		t.span("exec.run", root, func() { _, err = prep.RunContext(context.Background()) })
		if err != nil {
			return err
		}
		t.span("infer.derive", root, func() { res, err = infer.New(sys.Dictionary()).Derive(prep.Analysis) })
		if err != nil {
			return err
		}
		t.span("answer.render", root, func() { answer.Render(prep.Analysis, res, answerMode(o.mode)) })
		// Through the handler once so the response cache holds it.
		t.span("server.handle_fill", root, func() { err = serveRecorded(n, "/query", body) })
		if err != nil {
			return err
		}
	}
	t.span("server.handle_hit", root, func() { err = serveRecorded(n, "/query", body) })
	if err != nil {
		return err
	}
	t.span("http.roundtrip", root, func() { p.cl.do(o) })
	return nil
}

func (p *tracedPass) mutation(o *op, root int) error {
	sys := p.b.leader.sys
	m := p.b.m
	t := p.t
	p.r.tally.attempted.Add(1)
	m.begin(o)

	// The snapshot the write starts from: what its steps are replayed on
	// afterwards. A write installs a new snapshot and leaves this one be.
	base, d := sys.Catalog(), sys.Dictionary()
	full, st, _ := sys.RuleStatus()

	// The real write first, as a served write runs.
	var res *core.ApplyResult
	var err error
	apply := t.begin("core.apply_batch", root)
	res, err = sys.ApplyBatch(context.Background(), o.stmts)
	applyUS := t.end(apply)
	if err != nil {
		return err
	}
	if len(res.Mutations) != len(o.stmts) || res.Seq == 0 {
		p.r.tally.fail("%s: applied %d of %d statements at w%d", o.shape, len(res.Mutations), len(o.stmts), res.Seq)
	}
	p.b.publish(res.Seq)
	m.ack(o)
	clear(p.cl.answered)
	if p.b.follower != nil {
		t.span("replica.ship", root, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err = p.b.follower.sys.WaitForSeq(ctx, res.Seq)
		})
		if err != nil {
			return err
		}
	}

	// Then its steps again, from outside, on the snapshot it started
	// from.
	parsed := make([]sqlparse.Stmt, len(o.stmts))
	steps := t.span("sqlparse.parse_dml", root, func() {
		for i, src := range o.stmts {
			if parsed[i], err = sqlparse.ParseStatement(src); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	cat := base.ShallowClone()
	muts := make([]*query.Mutation, len(parsed))
	steps += t.span("query.apply_mutation", root, func() {
		for i, stmt := range parsed {
			if muts[i], err = query.ApplyMutation(cat, stmt); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	steps += t.span("maintain.apply", root, func() {
		for _, mu := range muts {
			st = st.ApplyMutation(d, full, mu)
		}
	})
	steps += t.span("dict.rebuild", root, func() { err = dict.New(cat).Apply(d.Decls()) })
	if err != nil {
		return err
	}
	// The record core logged, rebuilt here: same fields, same size.
	payload, err := json.Marshal(struct {
		Seq   uint64   `json:"seq"`
		Stmts []string `json:"stmts"`
	}{res.Seq, o.stmts})
	if err != nil {
		return err
	}
	steps += t.span("wal.append", root, func() { err = p.scratch.Append(payload) })
	if err != nil {
		return err
	}
	p.applyUS = append(p.applyUS, applyUS)
	p.applySelfUS = append(p.applySelfUS, applyUS-steps)
	p.walBytes += 8 + int64(len(payload))
	for _, s := range o.stmts {
		p.userBytes += int64(len(s))
	}
	return nil
}

func (p *tracedPass) run(n int) error {
	for i := 0; i < n; i++ {
		o := p.b.streams[streamSample].next()
		p.t.op++
		root := p.t.begin("op."+o.shape, 0)
		var err error
		if o.isMutation() {
			err = p.mutation(&o, root)
		} else {
			err = p.query(&o, root)
		}
		p.t.end(root)
		if err != nil {
			return fmt.Errorf("traced %s: %w", o.shape, err)
		}
	}
	return nil
}

// medianOf times fn n times and returns the median in the given unit.
func medianOf(n int, unit time.Duration, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start))/float64(unit))
	}
	return median(xs), nil
}

// indexRebuild times what the first read on a new snapshot pays over
// the second: a single-row write, then two distinct point lookups.
func (r *runner) indexRebuild(b *bed) (float64, error) {
	sys := b.leader.sys
	s := b.streams[streamSample]
	var xs []float64
	for i := 0; i < 5; i++ {
		w := s.insertBatch(1)
		b.m.begin(&w)
		if _, err := sys.ApplyBatch(context.Background(), w.stmts); err != nil {
			return 0, err
		}
		b.m.ack(&w)
		var took [2]time.Duration
		for j := range took {
			o := s.point()
			start := time.Now()
			if _, err := sys.QueryContext(context.Background(), o.sql, answer.Combined); err != nil {
				return 0, err
			}
			took[j] = time.Since(start)
		}
		xs = append(xs, float64(took[0]-took[1])/float64(time.Microsecond))
	}
	return median(xs), nil
}

// replicaLayers times the replication wire and the bootstrap halves
// against a caught-up leader.
func (r *runner) replicaLayers(b *bed, got map[string]float64) error {
	ctx := context.Background()
	leader := b.leader.sys
	rc := &replica.Client{Base: b.leader.url}
	var err error
	if got["replica.poll_rtt_us"], err = medianOf(50, time.Microsecond, func() error {
		_, err := rc.Poll(ctx, leader.WalSeq(), 0, 0)
		return err
	}); err != nil {
		return err
	}
	var archive *core.BootstrapArchive
	if got["core.bootstrap_archive_ms"], err = medianOf(3, time.Millisecond, func() error {
		archive, err = leader.BootstrapArchive()
		return err
	}); err != nil {
		return err
	}
	start := time.Now()
	man, err := rc.Manifest(ctx)
	if err != nil {
		return err
	}
	var bytesMoved int
	for i := range man.Chunks {
		chunk, err := rc.Chunk(ctx, man.ID, i, man.ChunkSize)
		if err != nil {
			return err
		}
		bytesMoved += len(chunk)
	}
	got["replica.chunk_bytes"] = float64(bytesMoved)
	got["replica.chunk_mb_per_s"] = float64(bytesMoved) / 1e6 / time.Since(start).Seconds()

	f, err := replica.Open(replica.Options{Dir: filepath.Join(b.dir, "scratch-follower"), Leader: b.leader.url})
	if err != nil {
		return err
	}
	start = time.Now()
	err = f.System().InstallBootstrap(archive)
	got["core.install_bootstrap_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	return errors.Join(err, f.Close())
}

// diskBytes sizes the bed's database directory and log.
func diskBytes(b *bed) (int64, error) {
	var n int64
	err := filepath.WalkDir(b.dbDir(), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(core.WALPath(b.dbDir()))
	if err != nil {
		return 0, err
	}
	return n + info.Size(), nil
}

// decompose splits the recovery about to be timed: loading the saved
// directory, scanning (a copy of) the log, and — by subtraction, in the
// caller — replaying its records.
func (rec *recovery) decompose(b *bed) error {
	start := time.Now()
	if _, err := core.Open(b.dbDir()); err != nil {
		return err
	}
	rec.loadMS = float64(time.Since(start)) / float64(time.Millisecond)
	data, err := os.ReadFile(core.WALPath(b.dbDir()))
	if err != nil {
		return err
	}
	scratch := filepath.Join(b.dir, "scan.wal")
	if err := os.WriteFile(scratch, data, 0o644); err != nil {
		return err
	}
	start = time.Now()
	log, entries, err := wal.Open(scratch)
	if err != nil {
		return err
	}
	rec.scanMS = float64(time.Since(start)) / float64(time.Millisecond)
	if len(entries) != rec.records {
		return errors.Join(fmt.Errorf("log holds %d records, the recovery step wrote %d", len(entries), rec.records), log.Close())
	}
	return log.Close()
}

// traced is a --trace 1 run: the per-layer metrics.
func (r *runner) traced() (map[string]float64, error) {
	got := map[string]float64{}
	for _, d := range perLayer {
		got[d.name] = 0 // a layer the workload leaves idle reports 0
	}
	got["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	n := r.size.sampleOps / r.w.sampleDiv

	// Induction alone, to set against induce_s: what core adds is the
	// clone, the dictionary rebuild, the rule store and the WAL record.
	_, d, _, err := generate(r.size, r.seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := induct.New(d, induct.Options{Nc: 2}).InduceAll(); err != nil {
		return nil, err
	}
	got["induct.induce_all_ms"] = float64(time.Since(start)) / float64(time.Millisecond)

	// Untraced serial pass on one bed ...
	b, cl, _, err := r.setup()
	if err != nil {
		return nil, err
	}
	untracedMS := r.serialPass(b, cl, n, got)
	cl.close()
	if err := b.close(); err != nil {
		return nil, err
	}

	// ... traced pass over the same requests on an identical one.
	b, cl, times, err := r.setup()
	if err != nil {
		return nil, err
	}
	defer func() {
		cl.close()
		if err := b.close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: cleanup:", err)
		}
	}()
	got["replica.bootstrap_s"] = times.bootstrap
	scratch, _, err := wal.Open(filepath.Join(b.dir, "append.wal"))
	if err != nil {
		return nil, err
	}
	t := newTracer()
	p := &tracedPass{r: r, b: b, cl: cl, t: t, scratch: scratch}
	err = p.run(n)
	if err = errors.Join(err, scratch.Close()); err != nil {
		return nil, err
	}
	if err := t.write(filepath.Join(r.outDir, "trace-"+r.w.name+".json"), r.w.name, r.seed); err != nil {
		return nil, err
	}

	parses := t.calls["sqlparse.parse"] + t.calls["sqlparse.parse_dml"]
	if parses > 0 {
		got["sqlparse.parse_us"] = (t.sumUS["sqlparse.parse"] + t.sumUS["sqlparse.parse_dml"]) / float64(parses)
	}
	got["core.prepare_self_us"] = median(p.prepareSelfUS)
	got["semopt.analyze_us"] = t.mean("semopt.analyze")
	got["exec.run_us"] = t.mean("exec.run")
	got["infer.derive_us"] = t.mean("infer.derive")
	got["answer.render_us"] = t.mean("answer.render")
	got["server.handle_hit_us"] = t.mean("server.handle_hit")
	transportUS := t.mean("http.roundtrip") - t.mean("server.handle_hit")
	got["http.transport_us"] = transportUS
	got["query.apply_mutation_us"] = t.mean("query.apply_mutation")
	got["maintain.apply_us"] = t.mean("maintain.apply")
	got["dict.rebuild_us"] = t.mean("dict.rebuild")
	got["wal.append_us"] = t.mean("wal.append")
	mutations := t.calls["core.apply_batch"]
	if mutations > 0 {
		// ApplyBatch less the steps replayed after it leaves the snapshot
		// install and the replication hand-off: microseconds, the
		// difference of two clones of the written relation that take
		// milliseconds each and half as long again when the collector
		// runs beside them. It reads 0 whenever the replays come out the
		// slower, which is often. Replays twice as slow as the write are
		// not what ApplyBatch does, and the decomposition is void.
		self, whole := median(p.applySelfUS), median(p.applyUS)
		if self < -whole {
			return nil, fmt.Errorf("the replayed steps of a write take %.0f us, ApplyBatch itself %.0f us", whole-self, whole)
		}
		got["core.apply_self_us"] = max(self, 0)
	}
	if p.userBytes > 0 {
		got["wal.bytes_per_user_byte"] = float64(p.walBytes) / float64(p.userBytes)
	}
	// A write's reply also crosses the loopback; it carries a body of
	// a hundred bytes, so the queries' transport floor stands in.
	tracedMS := (t.total(querySteps) + t.sumUS["core.apply_batch"] + t.sumUS["replica.ship"] + float64(mutations)*transportUS) / 1000
	got["trace.coverage"] = tracedMS / untracedMS
	got["trace.overhead_pct"] = 100 * spanCostUS() * float64(len(t.spans)) / (tracedMS * 1000)

	sys := b.leader.sys
	if got["storage.checkpoint_ms"], err = medianOf(3, time.Millisecond, sys.Checkpoint); err != nil {
		return nil, err
	}
	disk, err := diskBytes(b)
	if err != nil {
		return nil, err
	}
	got["storage.bytes_on_disk_per_user_byte"] = float64(disk) / float64(b.m.userBytes)
	if mutations > 0 {
		if got["quel.index_rebuild_us"], err = r.indexRebuild(b); err != nil {
			return nil, err
		}
	}
	if b.follower != nil {
		if err := r.replicaLayers(b, got); err != nil {
			return nil, err
		}
	}

	// The timed phase, for what only concurrent load shows.
	polls0 := r.scrape(cl, b.leader).Endpoints["GET /replica/wal"].Requests
	ph := r.load(b, r.seconds)
	sm := r.scrape(cl, b.leader)
	got["replica.poll_requests"] = float64(sm.Endpoints["GET /replica/wal"].Requests - polls0)
	got["server.queue_full"] = float64(sm.Server.QueueFull)
	got["server.queue_timeout"] = float64(sm.Server.QueueTimeout)
	got["server.panics"] = float64(sm.Server.Panics)
	if b.follower != nil {
		r.scrape(cl, b.follower)
		r.checkIdentical(b, cl)
	}
	ops := float64(ph.ops)
	got["runtime.alloc_bytes_per_op"] = float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / ops
	got["runtime.allocs_per_op"] = float64(ph.mem1.Mallocs-ph.mem0.Mallocs) / ops
	got["runtime.gc_pause_ms"] = float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs) / 1e6
	got["runtime.peak_heap_mb"] = float64(ph.mem1.HeapSys) / (1 << 20)
	// Informational tails: left at 0 when the run is too short to
	// support them.
	if p99, err := percentile(ph.queryMS, 99); err == nil {
		got["client.query_p99_ms"] = p99
	}
	got["replica.ship_lag_p50_ms"] = median(ph.lagMS)
	if p95, err := percentile(ph.lagMS, 95); err == nil {
		got["replica.ship_lag_p95_ms"] = p95
	}

	rec, err := r.recoveryStep(b, cl, true)
	if err != nil {
		return nil, err
	}
	got["storage.load_ms"] = rec.loadMS
	got["wal.scan_ms"] = rec.scanMS
	got["core.replay_us_per_record"] = (rec.recoverS*1000 - rec.loadMS - rec.scanMS) * 1000 / float64(rec.records)
	got["client.failed"] = float64(r.tally.failed.Load())
	return got, nil
}
