package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"powerrchol"
	"powerrchol/internal/pcg"
	"powerrchol/internal/powergrid"
	"powerrchol/internal/session"
)

// errLoopOver ends the transient integration once the timed loop is over
// or a step has failed (the failure is already counted).
var errLoopOver = errors.New("timed loop over")

// transientGridSeed fixes the transient grid; the workload seed drives
// its capacitors and load waveforms. A warm-started step takes only a
// handful of PCG iterations, so one iteration more or less on another
// grid would move the step time by a sixth; holding the grid fixed keeps
// that input effect out of the run-to-run spread.
const transientGridSeed = 1

// transientWarmup is how many leading steps are checked but left out of
// the latency samples. Starting from the unloaded operating point, the
// first four to seven steps take seven to nine PCG iterations; after
// them almost every step takes six, so the timed steps form one peak.
const transientWarmup = 8

// runTransient prepares the backward-Euler system of the dc-cold grid
// family once (session.Prepare on Grid.TransientSystem, Workers 1) and
// integrates it with Grid.RunTransientContext, one warm-started
// session.Sequence step per op. Set-up is the Prepare, repeated; the
// load surge is disabled so that every step costs about the same.
func runTransient(cfg config) (*outcome, error) {
	ctx := context.Background()
	g, err := powergrid.Generate(gridSpec(cfg.size.gridSide, transientGridSeed))
	if err != nil {
		return nil, err
	}
	ts := powergrid.TransientSpec{Steps: 1 << 30, SurgeStep: -1, Seed: cfg.seed}
	sys, _, err := g.TransientSystem(ts)
	if err != nil {
		return nil, err
	}

	out := &outcome{clients: 1, layers: map[string]float64{}}
	var sess *session.Session
	for cfg.moreSetup(out.setupS) {
		sess = nil
		runtime.GC() // start each repetition from a collected heap
		t0 := time.Now()
		sess, err = session.Prepare(ctx, sys, libOptions())
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
	}

	// The reference for each step is the same warm-started solve by an
	// independently prepared solver: the replayed split on a traced run,
	// a second powerrchol.Solver otherwise.
	var referee *powerrchol.Solver
	var sp *split
	if cfg.tr == nil {
		referee, err = powerrchol.NewSolverContext(ctx, sys, libOptions())
	} else {
		sp, err = replaySetup(ctx, sys, libPipeline(true), cfg.tr, -1, -1)
	}
	if err != nil {
		return nil, fmt.Errorf("referee: %w", err)
	}
	iters := map[int]int{}
	reference := func(b, x0 []float64, op int) ([]float64, error) {
		if sp != nil {
			opID := cfg.tr.begin("op", -1, op)
			defer cfg.tr.end(opID)
			res, err := sp.solve(b, x0, pcg.Options{Tol: tol, MaxIter: 500, Ctx: ctx}, cfg.tr, opID, op)
			if err != nil {
				return nil, err
			}
			iters[op] = res.Iterations
			return res.X, nil
		}
		res, err := referee.SolveFromContext(ctx, b, x0)
		if err != nil {
			return nil, err
		}
		return res.X, nil
	}

	seq := sess.Sequence(true)
	var xPrev []float64
	var companionMS, tracedMS []float64
	var lastReturn time.Time
	op := 0
	rp := newRefPair()
	deadline := cfg.deadline()
	_, err = g.RunTransientContext(ctx, ts, func(b []float64) ([]float64, int, error) {
		now := time.Now()
		if !lastReturn.IsZero() {
			companionMS = append(companionMS, float64(now.Sub(lastReturn))/1e6)
		}
		if now.After(deadline) {
			return nil, 0, errLoopOver
		}
		t0 := time.Now()
		res, err := seq.Step(ctx, b)
		lat := msSince(t0)
		u := rp.units(lat)
		if err != nil {
			out.record(lat, u, err)
			return nil, 0, errLoopOver
		}
		t1 := time.Now()
		refX, err := reference(b, xPrev, op)
		if sp != nil && op >= transientWarmup {
			tracedMS = append(tracedMS, msSince(t1))
		}
		if err == nil {
			x, converged := cfg.plant.apply(res.X, res.Converged)
			err = checkSolution(sys, b, x, converged, powerrchol.FingerprintVector(refX))
		}
		if op < transientWarmup {
			out.count(err)
		} else {
			out.record(lat, u, err)
		}
		xPrev = res.X
		op++
		lastReturn = time.Now()
		return res.X, res.Iterations, nil
	})
	if err != nil && !errors.Is(err, errLoopOver) {
		return nil, err
	}
	out.refMS = rp.times

	if cfg.tr != nil {
		out.traceLayers(cfg.tr, tracedMS)
		for _, name := range []string{"graph.tocsc", "pipeline.reorder", "pipeline.factorize"} {
			out.layers[name+"_ms"] = cfg.tr.setupTotal(name)
		}
		totals := cfg.tr.opTotals()
		pcgLayers(out.layers, totals, iters, sp)
		out.layers["powergrid.companion_ms"] = median(companionMS)
		out.layers["session.step_ms"] = median(out.latMS)
		out.layers["powerrchol.t_tot_s_per_mnnz"] = (sp.setupTotalMS + medianOver(totals, "pcg.solve")) / 1e3 / (float64(sp.nnzA) / 1e6)
	}
	return out, nil
}
