package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"powerrchol"
	"powerrchol/internal/graph"
	"powerrchol/internal/pcg"
	"powerrchol/internal/pipeline"
	"powerrchol/internal/powergrid"
)

// gridSpec is the dc-cold and transient grid family: five metal layers
// with sparse C4 pads, as the built-in thupg cases use.
func gridSpec(side int, seed uint64) powergrid.Spec {
	return powergrid.Spec{Name: "perfbench", NX: side, NY: side, Layers: 5, PadPitch: 48, Seed: seed}
}

// solverSeed is the factorization seed of the library workloads (the
// pgsolve default); the workload seed varies only the inputs.
const solverSeed = 2024

// libOptions is the library workloads' solver configuration: PowerRChol
// at tol 1e-6 on one core (Workers pinned to 1, the paper's setting).
func libOptions() powerrchol.Options {
	return powerrchol.Options{Tol: tol, Seed: solverSeed, Workers: 1}
}

// libPipeline mirrors libOptions for the traced replay; prepared marks
// the amortized front-end.
func libPipeline(prepared bool) pipeline.Config {
	return pipeline.Config{Method: pipeline.MethodPowerRChol, Seed: solverSeed, Workers: 1, Prepared: prepared}
}

// dcResult is what one dc-cold op produced.
type dcResult struct {
	x         []float64
	converged bool
	written   int64 // bytes of solution text
}

// dcRef is the independently computed reference answer.
type dcRef struct {
	sys     *graph.SDDM
	b       []float64
	fp      uint64
	written int64
}

// runDCCold drives the pgsolve -netlist path end to end in a closed loop
// with one client: netlist bytes → powergrid.Parse → BuildSystem →
// powerrchol.SolveContext → powergrid.WriteSolution into a counting
// writer that discards the text. Every op pays parsing, assembly,
// ordering and factorization. Set-up is the cold op: it is repeated
// after returning the heap to the OS, and excluded from the percentiles.
func runDCCold(cfg config) (*outcome, error) {
	ctx := context.Background()
	g, err := powergrid.Generate(gridSpec(cfg.size.gridSide, cfg.seed))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := g.ToNetlist().Write(&buf); err != nil {
		return nil, err
	}
	netlist := buf.Bytes()
	g = nil
	ref, err := dcReferee(ctx, netlist)
	if err != nil {
		return nil, fmt.Errorf("referee: %w", err)
	}
	check := func(r *dcResult) error {
		x, converged := cfg.plant.apply(r.x, r.converged)
		if err := checkSolution(ref.sys, ref.b, x, converged, ref.fp); err != nil {
			return err
		}
		if r.written != ref.written {
			return fmt.Errorf("wrote %d bytes of solution, reference wrote %d", r.written, ref.written)
		}
		return nil
	}

	out := &outcome{clients: 1, layers: map[string]float64{}}
	for cfg.moreSetup(out.setupS) {
		debug.FreeOSMemory()
		t0 := time.Now()
		r, err := dcOp(ctx, netlist)
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		if err == nil {
			err = check(r)
		}
		out.count(err)
	}

	var tracedMS []float64
	iters := map[int]int{}
	var sp *split
	rp := newRefPair()
	deadline := cfg.deadline()
	for op := 0; time.Now().Before(deadline); op++ {
		// Each op starts from a collected heap, as a fresh pgsolve
		// process would; the collection is outside the timed interval.
		runtime.GC()
		if cfg.tr == nil || op%2 == 0 {
			t0 := time.Now()
			r, err := dcOp(ctx, netlist)
			lat := msSince(t0)
			u := rp.units(lat)
			if err == nil {
				err = check(r)
			}
			out.record(lat, u, err)
			continue
		}
		t0 := time.Now()
		r, s, it, err := dcTracedOp(ctx, netlist, cfg.tr, op)
		tracedMS = append(tracedMS, msSince(t0))
		if err == nil {
			err = check(r)
		}
		out.count(err)
		if s != nil {
			sp, iters[op] = s, it
		}
	}
	out.refMS = rp.times
	if cfg.tr != nil {
		if sp == nil {
			return nil, fmt.Errorf("no traced op completed in %gs", cfg.seconds)
		}
		out.traceLayers(cfg.tr, tracedMS)
		totals := cfg.tr.opTotals()
		for _, name := range []string{"powergrid.parse", "powergrid.build", "powergrid.write", "graph.tocsc", "pipeline.reorder", "pipeline.factorize"} {
			out.layers[name+"_ms"] = medianOver(totals, name)
		}
		pcgLayers(out.layers, totals, iters, sp)
		var ttot []float64
		for _, m := range totals {
			ttot = append(ttot, (m["pipeline.next"]+m["graph.tocsc"]+m["pcg.solve"])/1e3/(float64(sp.nnzA)/1e6))
		}
		out.layers["powerrchol.t_tot_s_per_mnnz"] = median(ttot)
	}
	return out, nil
}

// dcOp is one untraced op: the pgsolve -netlist path.
func dcOp(ctx context.Context, netlist []byte) (*dcResult, error) {
	nl, err := powergrid.Parse(bytes.NewReader(netlist))
	if err != nil {
		return nil, err
	}
	s, err := nl.BuildSystem()
	if err != nil {
		return nil, err
	}
	res, err := powerrchol.SolveContext(ctx, s.Sys, s.B, libOptions())
	if err != nil {
		return nil, err
	}
	written, err := writeSolution(nl, s, res.X)
	if err != nil {
		return nil, err
	}
	return &dcResult{x: res.X, converged: res.Converged, written: written}, nil
}

// dcTracedOp is the same op with the solve replayed layer by layer.
func dcTracedOp(ctx context.Context, netlist []byte, tr *tracer, op int) (*dcResult, *split, int, error) {
	opID := tr.begin("op", -1, op)
	defer tr.end(opID)
	id := tr.begin("powergrid.parse", opID, op)
	nl, err := powergrid.Parse(bytes.NewReader(netlist))
	tr.end(id)
	if err != nil {
		return nil, nil, 0, err
	}
	id = tr.begin("powergrid.build", opID, op)
	s, err := nl.BuildSystem()
	tr.end(id)
	if err != nil {
		return nil, nil, 0, err
	}
	sp, err := replaySetup(ctx, s.Sys, libPipeline(false), tr, opID, op)
	if err != nil {
		return nil, nil, 0, err
	}
	pres, err := sp.solve(s.B, nil, pcg.Options{Tol: tol, MaxIter: 500, Workers: 1, Ctx: ctx}, tr, opID, op)
	if err != nil {
		return nil, nil, 0, err
	}
	id = tr.begin("powergrid.write", opID, op)
	written, err := writeSolution(nl, s, pres.X)
	tr.end(id)
	if err != nil {
		return nil, nil, 0, err
	}
	return &dcResult{x: pres.X, converged: pres.Converged, written: written}, sp, pres.Iterations, nil
}

// dcReferee solves the netlist once through the prepared Solver front-end
// (which the repository's equivalence suites hold bitwise equal to the
// one-shot path) and keeps what the checks need.
func dcReferee(ctx context.Context, netlist []byte) (*dcRef, error) {
	nl, err := powergrid.Parse(bytes.NewReader(netlist))
	if err != nil {
		return nil, err
	}
	s, err := nl.BuildSystem()
	if err != nil {
		return nil, err
	}
	solver, err := powerrchol.NewSolverContext(ctx, s.Sys, libOptions())
	if err != nil {
		return nil, err
	}
	res, err := solver.SolveContext(ctx, s.B)
	if err != nil {
		return nil, err
	}
	if rel := relResidual(s.Sys, res.X, s.B); !(rel <= tol) {
		return nil, fmt.Errorf("reference residual %.3e exceeds %.0e", rel, tol)
	}
	written, err := writeSolution(nl, s, res.X)
	if err != nil {
		return nil, err
	}
	return &dcRef{sys: s.Sys, b: s.B, fp: powerrchol.FingerprintVector(res.X), written: written}, nil
}

// writeSolution names the unknowns as pgsolve does and writes the
// solution file into a writer that only counts bytes.
func writeSolution(nl *powergrid.Netlist, s *powergrid.System, x []float64) (int64, error) {
	names := make([]string, len(x))
	for i := range names {
		names[i] = nl.NodeName(s.Unknown[i])
	}
	var w countingWriter
	err := powergrid.WriteSolution(&w, names, x)
	return w.n, err
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
