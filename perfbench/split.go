package main

import (
	"context"
	"time"

	"powerrchol/internal/graph"
	"powerrchol/internal/pcg"
	"powerrchol/internal/pipeline"
	"powerrchol/internal/sparse"
)

// A traced run splits a solve into layers by replaying the steps the
// solver front-ends take, through the same public functions, with spans
// around each call: pipeline.Runner.Next (whose Setup reports the
// reorder/factorize split), graph.SDDM.ToCSC, and pcg.SolveOp /
// pcg.SolveFromOp with the SpMV and the preconditioner wrapped in timers.
// The replayed answers are compared bit for bit with the untraced path.

// split is a replayed solver set-up: the iteration matrix and the
// preconditioner, plus the sizes the bandwidth model needs.
type split struct {
	n            int
	a            *sparse.CSC
	m            pcg.Preconditioner
	nnzA         int // stored entries of the assembled matrix
	factorNNZ    int
	factorIdxB   int
	setupTotalMS float64 // Next + ToCSC
}

// replaySetup builds the set-up of cfg for sys, recording
// "pipeline.next" (children "pipeline.reorder" and "pipeline.factorize",
// placed from the Setup's own split) and "graph.tocsc" spans.
func replaySetup(ctx context.Context, sys *graph.SDDM, cfg pipeline.Config, tr *tracer, parent, op int) (*split, error) {
	r, err := pipeline.NewRunner(sys, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	setup, err := r.Next(ctx)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	next := tr.add("pipeline.next", t0, t1, parent, op)
	tr.add("pipeline.reorder", t0, t0.Add(setup.Reorder), next, op)
	tr.add("pipeline.factorize", t0.Add(setup.Reorder), t0.Add(setup.Reorder+setup.Factorize), next, op)

	t2 := time.Now()
	a := setup.Sys.ToCSC()
	t3 := time.Now()
	tr.add("graph.tocsc", t2, t3, parent, op)
	return &split{
		n:            sys.N(),
		a:            a,
		m:            setup.M,
		nnzA:         a.NNZ(),
		factorNNZ:    setup.FactorNNZ,
		factorIdxB:   setup.FactorIndexBytes,
		setupTotalMS: float64(t1.Sub(t0)+t3.Sub(t2)) / 1e6,
	}, nil
}

// solve runs one PCG solve on the replayed set-up (warm-started when x0
// is non-nil) as a "pcg.solve" span whose children are every SpMV and
// preconditioner apply.
func (s *split) solve(b, x0 []float64, popt pcg.Options, tr *tracer, parent, op int) (*pcg.Result, error) {
	id := tr.begin("pcg.solve", parent, op)
	defer tr.end(id)
	mul := timedMul(s.a.MulVec, tr, id, op)
	m := &timedPrecond{m: s.m, tr: tr, parent: id, op: op}
	if x0 == nil {
		return pcg.SolveOp(s.n, mul, b, m, popt)
	}
	return pcg.SolveFromOp(s.n, mul, b, x0, m, popt)
}

// bytesPerIter is the computed memory traffic of one PCG iteration under
// a streaming model that touches each array once per kernel: the CSC
// SpMV (values, indices, x read, y cleared and written), the two
// triangular solves (factor values and indices, the work vector read and
// written) with the permutation copies around them, and the dense vector
// kernels (two dots, two axpys, a norm, the direction update and the
// best-iterate copy: 16 vector passes). It is computed, not measured.
func (s *split) bytesPerIter() float64 {
	n := float64(s.n)
	spmv := 8*float64(s.nnzA) + float64(s.a.IndexBytes()) + 24*n
	precond := 2*(8*float64(s.factorNNZ)+float64(s.factorIdxB)) + 2*16*n + 2*24*n
	vector := 16 * 8 * n
	return spmv + precond + vector
}

// pcgLayers derives the pcg.* per-layer metrics from the traced ops:
// medians over ops of the per-op totals, with vector time the self time
// of "pcg.solve" (what neither the SpMV nor the preconditioner covers).
func pcgLayers(layers map[string]float64, totals map[int]map[string]float64, iters map[int]int, s *split) {
	var vec, gbps, it []float64
	for op, m := range totals {
		solve, ok := m["pcg.solve"]
		if !ok {
			continue
		}
		vec = append(vec, solve-m["pcg.precond"]-m["pcg.spmv"])
		it = append(it, float64(iters[op]))
		if solve > 0 {
			gbps = append(gbps, s.bytesPerIter()*float64(iters[op])/(solve/1e3)/1e9)
		}
	}
	layers["pcg.iterations"] = median(it)
	layers["pcg.precond_ms"] = medianOver(totals, "pcg.precond")
	layers["pcg.spmv_ms"] = medianOver(totals, "pcg.spmv")
	layers["pcg.vector_ms"] = median(vec)
	layers["pcg.computed_bytes_per_iter"] = s.bytesPerIter()
	layers["pcg.achieved_gbps"] = median(gbps)
	layers["core.fill_ratio"] = float64(s.factorNNZ) / float64(s.nnzA)
}
