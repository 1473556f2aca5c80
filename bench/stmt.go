package main

import (
	"fmt"
	"math/rand"

	"intensional/internal/synth"
)

// A request goes to the leader or, on the replicated workload, to the
// follower.
type nodeID int

const (
	onLeader nodeID = iota
	onFollower
)

// op is one generated request with what the model expects of it.
type op struct {
	shape string // q_type_join, q_range_join, ... m_insert, m_update, m_delete
	node  nodeID
	// A query has sql and mode; a mutation has stmts.
	sql   string
	mode  string
	stmts []string
	// useToken makes a query carry the latest read-your-writes token.
	useToken bool

	// A query's expected row count is base plus the bench rows of the
	// reserved classes it covers.
	base     int
	reserved []int
	// A mutation's effect on the model: the class of every row it
	// inserts and deletes.
	ins, del []int
}

func (o *op) isMutation() bool { return len(o.stmts) > 0 }

// Statement shapes. The first three are the paper's Examples 2, 1 and 3
// moved onto the generated fleet.
const (
	sqlTypeJoin  = `SELECT SHIP.Id, SHIP.Class FROM SHIP, CLASS WHERE SHIP.Class = CLASS.Class AND CLASS.Type = '%s'`
	sqlRangeJoin = `SELECT SHIP.Id, CLASS.Type FROM SHIP, CLASS WHERE SHIP.Class = CLASS.Class AND CLASS.Displacement >= %d AND CLASS.Displacement <= %d`
	sqlThreeWay  = `SELECT SHIP.Id, CLASS.Class, TYPE.TypeName FROM SHIP, CLASS, TYPE WHERE SHIP.Class = CLASS.Class AND CLASS.Type = TYPE.Type AND TYPE.Category = '%s' AND CLASS.Type = '%s' AND CLASS.Displacement >= %d`
	sqlClass     = `SELECT Id, Name FROM SHIP WHERE Class = '%s'`
	sqlPoint     = `SELECT Id, Name, Class FROM SHIP WHERE Id = '%s'`
	sqlInsert    = `INSERT INTO SHIP VALUES ('%s', '%s', '%s')`
	sqlUpdate    = `UPDATE SHIP SET Name = '%s' WHERE Id = '%s'`
	sqlDelete    = `DELETE FROM SHIP WHERE Id = '%s'`
)

// cover fills in a query's expectation: the classes whose ships answer
// it.
func (m *model) cover(o op, match func(class) bool) op {
	for i, c := range m.classes {
		if !match(c) {
			continue
		}
		o.base += m.size.shipsPerClass
		if c.reserved {
			o.reserved = append(o.reserved, i)
		}
	}
	return o
}

func (m *model) qTypeJoin(typ, mode string) op {
	o := op{shape: "q_type_join", sql: fmt.Sprintf(sqlTypeJoin, typ), mode: mode}
	return m.cover(o, func(c class) bool { return c.typ == typ })
}

func (m *model) qRangeJoin(lo, hi int64) op {
	o := op{shape: "q_range_join", sql: fmt.Sprintf(sqlRangeJoin, lo, hi), mode: "forward"}
	return m.cover(o, func(c class) bool { return lo <= c.disp && c.disp <= hi })
}

func (m *model) qThreeWay(t synth.ShipType, lo int64) op {
	o := op{shape: "q_three_way", sql: fmt.Sprintf(sqlThreeWay, t.Category, t.Type, lo), mode: "combined"}
	return m.cover(o, func(c class) bool { return c.typ == t.Type && c.disp >= lo })
}

func (m *model) qClass(ci int) op {
	code := m.classes[ci].code
	o := op{shape: "q_class", sql: fmt.Sprintf(sqlClass, code), mode: "combined"}
	return m.cover(o, func(c class) bool { return c.code == code })
}

func (m *model) qPoint(ship int) op {
	return op{shape: "q_point", sql: fmt.Sprintf(sqlPoint, m.shipIDs[ship]), mode: "combined", base: 1}
}

// Stream ids. Each stream draws from its own generator and keeps every
// literal it emits in its own residue class modulo nStreams, so no two
// streams ever produce the same statement text.
const (
	streamClient0 = iota
	streamClient1
	streamWarm   // warm-up, the recovery step's writes, the byte-identity check
	streamSample // the serial passes of a traced run
	nStreams
)

// benchRow is a ship the benchmark inserted and has not deleted.
type benchRow struct {
	id    string
	class int
}

// stream generates one client's requests. The same (workload, seed,
// stream id) yields the same sequence, whatever the clock does.
type stream struct {
	m      *model
	w      *workload
	id     int
	rng    *rand.Rand
	seed   int64
	seen   map[string]bool // texts emitted, for the all-unique workloads
	hot    []op            // the cached workload's statements
	deck   []byte          // request kinds still to deal; see adhocMix
	live   []benchRow
	serial int // bench rows inserted so far
	count  int // requests generated so far
}

// streamSeed gives every (seed, workload, stream) its own generator.
func streamSeed(seed int64, w *workload, id int) int64 {
	return seed*64 + int64(w.index)*8 + int64(id)
}

func newStream(m *model, w *workload, seed int64, id int) *stream {
	return &stream{
		m: m, w: w, id: id, seed: seed,
		rng:  rand.New(rand.NewSource(streamSeed(seed, w, id))),
		seen: map[string]bool{},
	}
}

func (s *stream) next() op {
	o := s.w.next(s)
	s.count++
	return o
}

// residue moves v into the stream's residue class.
func (s *stream) residue(v int64) int64 { return v - v%nStreams + int64(s.id) }

// unique redraws until gen yields a text this stream has not emitted.
// A stream draws a few thousand texts from tens of thousands; one that
// cannot find a new text is mis-sized, and spinning would hide it.
func (s *stream) unique(gen func() op) op {
	for tries := 0; tries < 10000; tries++ {
		o := gen()
		if !s.seen[o.sql] {
			s.seen[o.sql] = true
			return o
		}
	}
	panic(fmt.Sprintf("bench: stream %d of %s has run out of distinct statements after %d requests", s.id, s.w.name, s.count))
}

// point is a lookup of a ship this stream has not looked up before.
func (s *stream) point() op {
	return s.unique(func() op {
		return s.m.qPoint(int(s.residue(int64(s.rng.Intn(len(s.m.shipIDs) - nStreams)))))
	})
}

// The request mixes, one card per request kind: point lookup, range
// join, three-way join, insert, update, delete. A stream deals them from
// a deck reshuffled each time it runs out, so every hundred requests
// hold the kinds in exact shares. Were each request's kind drawn
// independently, the share of the expensive kinds — a write and the
// index rebuild behind it cost ten reads — would wander by a twentieth
// from seed to seed, and ops_per_s with it.
const (
	// adhocMix is 70 % point lookups, 20 % range joins whose interval
	// holds at least one class, 10 % three-way joins.
	adhocMix = "PPPPPPPRRT"
	// mixedMix is nine adhocMix decks and ten single-row writes:
	// 60 % insert, 20 % update, 20 % delete.
	mixedMix = adhocMix + adhocMix + adhocMix + adhocMix + adhocMix + adhocMix + adhocMix + adhocMix + adhocMix + "IIIIIIUUDD"
)

// deal draws the stream's next request from its deck of mix.
func (s *stream) deal(mix string) op {
	if len(s.deck) == 0 {
		s.deck = []byte(mix)
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	kind := s.deck[len(s.deck)-1]
	s.deck = s.deck[:len(s.deck)-1]
	m := s.m
	switch kind {
	case 'P':
		return s.point()
	case 'R':
		return s.unique(func() op {
			anchor := m.classes[s.rng.Intn(len(m.classes))].disp
			lo := s.residue(anchor - s.rng.Int63n(500) - nStreams)
			return m.qRangeJoin(lo, lo+200+s.rng.Int63n(800))
		})
	case 'T':
		return s.unique(func() op {
			t := m.types[s.rng.Intn(len(m.types))]
			lo := s.residue(t.MinDisp - 1000 + s.rng.Int63n(t.MaxDisp-t.MinDisp+1000))
			return m.qThreeWay(t, lo)
		})
	}
	// An update or a delete is only ever of a row this stream inserted
	// itself; with none left, it inserts.
	if kind == 'I' || len(s.live) == 0 {
		return s.insertBatch(1)
	}
	i := s.rng.Intn(len(s.live))
	row := s.live[i]
	if kind == 'U' {
		return op{shape: "m_update", stmts: []string{fmt.Sprintf(sqlUpdate, fmt.Sprintf("Bench %d renamed", s.count), row.id)}}
	}
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
	return op{shape: "m_delete", stmts: []string{fmt.Sprintf(sqlDelete, row.id)}, del: []int{row.class}}
}

// insertRow draws a new bench row for a random reserved class.
func (s *stream) insertRow() (string, benchRow) {
	s.serial++
	row := benchRow{
		id:    fmt.Sprintf("%s%d-%06d", benchIDPrefix, s.id, s.serial),
		class: s.m.reserved[s.rng.Intn(len(s.m.reserved))],
	}
	s.live = append(s.live, row)
	return fmt.Sprintf(sqlInsert, row.id, fmt.Sprintf("Bench %d", s.serial), s.m.classes[row.class].code), row
}

// insertBatch is one /mutate of n m_insert statements.
func (s *stream) insertBatch(n int) op {
	o := op{shape: "m_insert"}
	for i := 0; i < n; i++ {
		stmt, row := s.insertRow()
		o.stmts = append(o.stmts, stmt)
		o.ins = append(o.ins, row.class)
	}
	return o
}

// workload is one traffic mix.
type workload struct {
	name  string
	index int
	// checkpointBytes is the leader's auto-checkpoint threshold during
	// the timed phase, 0 for never.
	checkpointBytes int64
	// replicated adds a follower with its own server.
	replicated bool
	// tailBatch is the rows per /mutate in the recovery step.
	tailBatch int
	// queryTail is the percentile query_tail_ms reports: p95 where a run
	// yields thousands of queries, p80 where it yields a few hundred, so
	// that a host three times slower still leaves ten samples beyond it.
	queryTail float64
	// writes says the timed phase sends mutations.
	writes bool
	// sampleDiv shrinks the serial passes of a traced run where one
	// request costs a tenth of a second.
	sampleDiv int
	next      func(*stream) op
}

// mutateTail is the percentile mutate_tail_ms reports. Every workload
// has a few hundred writes to show for a run, hence p80; see queryTail.
const mutateTail = 80

// hotModes are the four answer modes of the cached workload. All carry
// the extensional rows, so the server's share — DTO rebuild and JSON
// encode of the body — is in every request.
var hotModes = []string{"extensional", "combined", "forward", "backward"}

// hotSet is the cached workload's 64 statements for one seed: every
// type join in four modes, and 16 class lookups.
func hotSet(m *model, seed int64) []op {
	var set []op
	for _, t := range m.types {
		for _, mode := range hotModes {
			set = append(set, m.qTypeJoin(t.Type, mode))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, ci := range rng.Perm(len(m.classes))[:16] {
		set = append(set, m.qClass(ci))
	}
	return set
}

var workloads = []*workload{
	{
		name: "read_cached", tailBatch: 1, queryTail: 95, sampleDiv: 1,
		next: func(s *stream) op {
			if s.hot == nil {
				s.hot = hotSet(s.m, s.seed)
			}
			if s.id == streamWarm {
				// Warm-up answers every hot statement once, in order.
				return s.hot[s.count%len(s.hot)]
			}
			return s.hot[s.rng.Intn(len(s.hot))]
		},
	},
	{
		name: "read_adhoc", tailBatch: 1, queryTail: 95, sampleDiv: 1,
		next: func(s *stream) op { return s.deal(adhocMix) },
	},
	{
		// 8 KiB is some eighty single-row records, so a timed phase
		// cycles through several checkpoints.
		name: "mixed_rw", checkpointBytes: 8 << 10, tailBatch: 1, queryTail: 95, writes: true, sampleDiv: 1,
		next: func(s *stream) op {
			if s.id == streamWarm {
				return s.deal(adhocMix)
			}
			return s.deal(mixedMix)
		},
	},
	{
		name: "ingest_replicated", replicated: true, tailBatch: 4, queryTail: 80, writes: true, sampleDiv: 5,
		next: func(s *stream) op {
			// Every client ingests a batch on the leader, then reads an
			// ingest class on the follower with the newest token: each
			// read waits for a write to cross, for the whole of its lag.
			// (A reader running free beside a writer meets the lag at a
			// random phase and cache hits in between, and its median
			// wanders by a third from seed to seed.)
			if s.id != streamWarm && s.count%2 == 0 {
				return s.insertBatch(s.w.tailBatch)
			}
			o := s.m.qClass(s.m.reserved[s.rng.Intn(len(s.m.reserved))])
			o.node, o.useToken = onFollower, true
			return o
		},
	},
}

func init() {
	for i, w := range workloads {
		w.index = i
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
