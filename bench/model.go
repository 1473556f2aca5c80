package main

import (
	"fmt"
	"strings"
	"sync/atomic"

	"intensional/internal/dict"
	"intensional/internal/relation"
	"intensional/internal/storage"
	"intensional/internal/synth"
)

// sizing holds the benchmark's fixed sizes. The driver never changes
// them; the tests swap in a small one so a full run takes a second.
type sizing struct {
	classesPerType int // at least 6, so every type has a reserved class
	shipsPerClass  int
	setups         int // set-ups per untraced run; setup_s is their median
	warmOps        int // fixed-count warm-up requests per set-up
	tailRows       int // rows the recovery step writes, acknowledged one batch at a time
	sampleOps      int // requests in each serial pass of a traced run
}

// fullSize is the benchmark: 240 classes, 60 000 ships.
var fullSize = sizing{
	classesPerType: 20,
	shipsPerClass:  250,
	setups:         3,
	warmOps:        100,
	tailRows:       256,
	sampleOps:      300,
}

// class is one CLASS row as the driver remembers it.
type class struct {
	code     string
	typ      string
	category string
	disp     int64
	// reserved classes are the only ones the benchmark writes to, so
	// its row-count model stays exact for the other nine tenths.
	reserved bool
}

// model is the driver's own account of the generated data: what it
// checks every answer against. It is built from the generator's output
// relations, never from a query.
type model struct {
	size     sizing
	classes  []class
	byCode   map[string]int   // class code → class index
	byType   map[string][]int // type → class indexes, generation order
	types    []synth.ShipType
	reserved []int    // indexes of the reserved classes
	shipIDs  []string // base ship ids, generation order
	// userBytes is the size of the generated cell values: the base of
	// the bytes-per-user-byte ratios.
	userBytes int64

	// Bench rows per class, as monotone counters, so a reader racing a
	// writer can bound what any snapshot between its send and its
	// receive may hold. Indexed by class; only reserved entries move.
	insStarted, insAcked, delStarted, delAcked []atomic.Int64
}

// benchIDPrefix starts every ship id the benchmark inserts. Lower case
// sorts after every generated id, so a bench row never lands inside an
// induced Id-range rule and writes leave the rule base valid.
const benchIDPrefix = "b"

// generate builds the seeded fleet, its dictionary and the model.
func generate(size sizing, seed int64) (*storage.Catalog, *dict.Dictionary, *model, error) {
	if size.classesPerType < 6 {
		return nil, nil, nil, fmt.Errorf("classesPerType %d leaves no reserved class", size.classesPerType)
	}
	cat := synth.Fleet(synth.FleetConfig{
		ClassesPerType: size.classesPerType,
		ShipsPerClass:  size.shipsPerClass,
		Seed:           seed,
	})
	d, err := synth.FleetDictionary(cat)
	if err != nil {
		return nil, nil, nil, err
	}
	m := &model{size: size, byCode: map[string]int{}, byType: map[string][]int{}, types: synth.Table1}
	category := map[string]string{}
	for _, t := range synth.Table1 {
		category[t.Type] = t.Category
	}
	cls, err := cat.Get(synth.FleetClass)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, row := range cls.Rows() {
		c := class{code: row[0].Str(), typ: row[2].Str(), disp: row[3].Int64()}
		c.category = category[c.typ]
		// Class k of each type (0-based) is reserved when k%10 == 5:
		// a tenth of them, never a boundary class of Table 1.
		c.reserved = len(m.byType[c.typ])%10 == 5
		i := len(m.classes)
		m.byCode[c.code] = i
		m.classes = append(m.classes, c)
		m.byType[c.typ] = append(m.byType[c.typ], i)
		if c.reserved {
			m.reserved = append(m.reserved, i)
		}
	}
	ship, err := cat.Get(synth.FleetShip)
	if err != nil {
		return nil, nil, nil, err
	}
	perClass := make([]int, len(m.classes))
	for _, row := range ship.Rows() {
		m.shipIDs = append(m.shipIDs, row[0].Str())
		perClass[m.byCode[row[2].Str()]]++
	}
	for i, n := range perClass {
		if n != size.shipsPerClass {
			return nil, nil, nil, fmt.Errorf("class %s has %d ships, generator promised %d", m.classes[i].code, n, size.shipsPerClass)
		}
	}
	for _, name := range cat.Names() {
		r, err := cat.Get(name)
		if err != nil {
			return nil, nil, nil, err
		}
		m.userBytes += cellBytes(r)
	}
	n := len(m.classes)
	m.insStarted = make([]atomic.Int64, n)
	m.insAcked = make([]atomic.Int64, n)
	m.delStarted = make([]atomic.Int64, n)
	m.delAcked = make([]atomic.Int64, n)
	return cat, d, m, nil
}

// cellBytes sizes a relation's values: string bytes, 8 per number.
func cellBytes(r *relation.Relation) int64 {
	var n int64
	for _, row := range r.Rows() {
		for _, v := range row {
			if v.Kind() == relation.KindString {
				n += int64(len(v.Str()))
			} else if !v.IsNull() {
				n += 8
			}
		}
	}
	return n
}

// window is what the model knows about bench rows in some classes at
// one instant: sums of the four counters.
type window struct{ insStarted, insAcked, delStarted, delAcked int64 }

// observe sums the counters over the given reserved classes.
func (m *model) observe(reserved []int) window {
	var w window
	for _, c := range reserved {
		w.insStarted += m.insStarted[c].Load()
		w.insAcked += m.insAcked[c].Load()
		w.delStarted += m.delStarted[c].Load()
		w.delAcked += m.delAcked[c].Load()
	}
	return w
}

// bounds returns the row counts any snapshot taken between two
// observations may report for a query whose unwritten rows number base:
// every insert acknowledged before the send is in, every delete begun
// before the receive may be; and the other way round for the ceiling.
// With no writer the two observations are equal and the bound is exact.
func bounds(base int, send, recv window) (lo, hi int) {
	return base + int(send.insAcked-recv.delStarted), base + int(recv.insStarted-send.delAcked)
}

// begin notes that a mutation is about to be sent; ack that it was
// acknowledged.
func (m *model) begin(o *op) {
	for _, ci := range o.ins {
		m.insStarted[ci].Add(1)
	}
	for _, ci := range o.del {
		m.delStarted[ci].Add(1)
	}
}

func (m *model) ack(o *op) {
	for _, ci := range o.ins {
		m.insAcked[ci].Add(1)
	}
	for _, ci := range o.del {
		m.delAcked[ci].Add(1)
	}
}

// verifyFinal checks a quiescent catalog against the model: every
// class holds exactly its generated ships plus the live bench rows, and
// every acknowledged live bench row is present exactly once.
func (m *model) verifyFinal(cat *storage.Catalog, live map[string]int) error {
	ship, err := cat.Get(synth.FleetShip)
	if err != nil {
		return err
	}
	perClass := make([]int, len(m.classes))
	seen := map[string]int{}
	for _, row := range ship.Rows() {
		ci, ok := m.byCode[row[2].Str()]
		if !ok {
			return fmt.Errorf("ship %s is in unknown class %s", row[0].Str(), row[2].Str())
		}
		perClass[ci]++
		if id := row[0].Str(); strings.HasPrefix(id, benchIDPrefix) {
			seen[id]++
		}
	}
	for id, ci := range live {
		if seen[id] != 1 {
			return fmt.Errorf("acknowledged row %s (class %s) is present %d times, want exactly once", id, m.classes[ci].code, seen[id])
		}
	}
	if len(seen) != len(live) {
		for id := range seen {
			if _, ok := live[id]; !ok {
				return fmt.Errorf("row %s is present but was deleted or never acknowledged", id)
			}
		}
	}
	want := make([]int, len(m.classes))
	for i := range want {
		want[i] = m.size.shipsPerClass
	}
	for _, ci := range live {
		want[ci]++
	}
	for i := range want {
		if perClass[i] != want[i] {
			return fmt.Errorf("class %s holds %d ships, model says %d", m.classes[i].code, perClass[i], want[i])
		}
	}
	return nil
}
