package server

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// bucketBoundsMS are the latency histogram upper bounds in milliseconds;
// an implicit final bucket catches everything slower. Chosen to resolve
// both cached sub-millisecond queries and multi-second inductions.
var bucketBoundsMS = []float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// endpointMetrics accumulates one endpoint's counters. All fields are
// guarded by the owning metrics registry's lock.
type endpointMetrics struct {
	requests uint64
	statuses map[int]uint64
	buckets  []uint64 // len(bucketBoundsMS)+1, last is the overflow bucket
	totalMS  float64
	maxMS    float64
}

// metrics is the in-process registry behind GET /metrics: per-endpoint
// request counts, status counts, and latency histograms. Stdlib only —
// it is the JSON analogue of a Prometheus exposition.
type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics // guarded by mu
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointMetrics)}
}

// observe records one completed request.
func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.endpoints[endpoint]
	if !ok {
		e = &endpointMetrics{
			statuses: make(map[int]uint64),
			buckets:  make([]uint64, len(bucketBoundsMS)+1),
		}
		m.endpoints[endpoint] = e
	}
	e.requests++
	e.statuses[status]++
	e.totalMS += ms
	if ms > e.maxMS {
		e.maxMS = ms
	}
	i := sort.SearchFloat64s(bucketBoundsMS, ms)
	e.buckets[i]++
}

// histogramJSON pairs the shared bucket bounds with one endpoint's
// counts; counts has one extra trailing entry for the overflow bucket.
type histogramJSON struct {
	BoundsMS []float64 `json:"boundsMs"`
	Counts   []uint64  `json:"counts"`
}

type endpointJSON struct {
	Requests uint64            `json:"requests"`
	Statuses map[string]uint64 `json:"statuses"`
	TotalMS  float64           `json:"totalMs"`
	MaxMS    float64           `json:"maxMs"`
	Latency  histogramJSON     `json:"latency"`
}

type metricsJSON struct {
	Endpoints map[string]endpointJSON `json:"endpoints"`
	// System, Server, and Planner are filled in by the handler — from
	// the core snapshot, the admission/panic counters, and the planner
	// counters respectively; the registry itself only owns the
	// per-endpoint counters.
	System  systemJSON  `json:"system"`
	Server  serverJSON  `json:"server"`
	Planner plannerJSON `json:"planner"`
	// Replication is present on durable nodes: role, WAL position, and
	// follower streaming progress.
	Replication *replicationJSON `json:"replication,omitempty"`
}

// snapshot copies the registry into its wire form. encoding/json sorts
// map keys, so the exposition is deterministic.
func (m *metrics) snapshot() metricsJSON {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := metricsJSON{Endpoints: make(map[string]endpointJSON, len(m.endpoints))}
	for name, e := range m.endpoints {
		ej := endpointJSON{
			Requests: e.requests,
			Statuses: make(map[string]uint64, len(e.statuses)),
			TotalMS:  e.totalMS,
			MaxMS:    e.maxMS,
			Latency: histogramJSON{
				BoundsMS: bucketBoundsMS,
				Counts:   append([]uint64(nil), e.buckets...),
			},
		}
		for code, n := range e.statuses {
			ej.Statuses[strconv.Itoa(code)] = n
		}
		out.Endpoints[name] = ej
	}
	return out
}
