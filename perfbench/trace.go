package main

import (
	"fmt"
	"sync"
	"time"

	"powerrchol/internal/pcg"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// code around a call into the program's public functions. Op groups the
// spans of one operation (-1 for set-up); Parent is the index of the
// enclosing span, -1 at the top.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

func (s Span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, StartNS: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// add records an already measured interval.
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// opTotals sums span durations (ms) by name for every op ≥ 0.
func (t *tracer) opTotals() map[int]map[string]float64 {
	out := map[int]map[string]float64{}
	for _, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		m := out[s.Op]
		if m == nil {
			m = map[string]float64{}
			out[s.Op] = m
		}
		m[s.Name] += s.ms()
	}
	return out
}

// setupTotal sums the set-up spans (op -1) of one name, in ms.
func (t *tracer) setupTotal(name string) float64 {
	var ms float64
	for _, s := range t.spans {
		if s.Op < 0 && s.Name == name {
			ms += s.ms()
		}
	}
	return ms
}

// medianOver returns the median over ops of the per-op total of name.
func medianOver(totals map[int]map[string]float64, name string) float64 {
	var v []float64
	for _, m := range totals {
		if x, ok := m[name]; ok {
			v = append(v, x)
		}
	}
	return median(v)
}

// Every traced op's direct child spans must cover its wall time to
// within gapEpsilon: a fixed allowance for the glue between calls plus a
// share of the op.
const (
	gapFixedMS = 1.0
	gapShare   = 0.02
)

// checkCoverage verifies that, for every span named "op", the durations
// of its direct children sum to its own duration within the epsilon
// above, and that no span's children outlast it. It returns the first
// violation.
func (t *tracer) checkCoverage() error {
	children := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.ms()
		}
	}
	for i, s := range t.spans {
		wall := s.ms()
		eps := gapFixedMS + gapShare*wall
		if children[i] > wall+eps {
			return fmt.Errorf("span %s (op %d): children %.3f ms exceed its %.3f ms", s.Name, s.Op, children[i], wall)
		}
		if s.Name == "op" && wall-children[i] > eps {
			return fmt.Errorf("op %d: layer spans cover %.3f of %.3f ms (ε %.3f ms)", s.Op, children[i], wall, eps)
		}
	}
	return nil
}

// timedPrecond wraps a preconditioner so that every Apply is a
// "pcg.precond" span under the given parent.
type timedPrecond struct {
	m      pcg.Preconditioner
	tr     *tracer
	parent int
	op     int
}

func (p *timedPrecond) Apply(z, r []float64) {
	id := p.tr.begin("pcg.precond", p.parent, p.op)
	p.m.Apply(z, r)
	p.tr.end(id)
}

// timedMul wraps an SpMV closure so that every product is a "pcg.spmv"
// span under the given parent.
func timedMul(mul func(y, x []float64), tr *tracer, parent, op int) func(y, x []float64) {
	return func(y, x []float64) {
		id := tr.begin("pcg.spmv", parent, op)
		mul(y, x)
		tr.end(id)
	}
}
