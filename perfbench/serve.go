package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"powerrchol"
	"powerrchol/internal/cases"
	"powerrchol/internal/graph"
	"powerrchol/internal/pcg"
	"powerrchol/internal/pipeline"
	"powerrchol/internal/rng"
	"powerrchol/internal/serve"
	"powerrchol/internal/session"
)

const (
	serveClients  = 2  // closed-loop clients (the machine's CPU count)
	serveInject   = 64 // current injections per request
	serveProbes   = 16 // node voltages each request asks back
	serveReplays  = 24 // traced run: requests replayed layer by layer
	serveSeed     = 42 // pgserved's default factorization seed
	serveWorkers  = 1  // server worker count (see serveConfig)
	serveCaseName = "thupg10"
	opHeader      = "X-Perfbench-Op"
)

// serveOptions is cmd/pgserved's flag defaults as they resolve, with the
// worker count written out.
func serveOptions() powerrchol.Options {
	return powerrchol.Options{
		Method: powerrchol.MethodPowerRChol, Tol: tol, Seed: serveSeed, Workers: serveWorkers,
		Retry: powerrchol.RetryPolicy{MaxAttempts: 3, Escalate: true},
	}
}

// serveConfig is cmd/pgserved's flag defaults with the worker count
// written out as 1. The default (one per CPU, 2 here) runs each
// level-scheduled triangular solve on two goroutines that meet at every
// level, so a request's time follows whichever vCPU a neighbour slows
// most: it was about 2.75× slower than serial and the noisiest
// configuration in the probes (README.md).
func serveConfig() serve.Config {
	return serve.Config{
		Options:          serveOptions(),
		CacheBudgetBytes: 256 << 20,
		MaxGrids:         64,
		MaxInflight:      8,
		MaxQueue:         64,
		BatchWindow:      2 * time.Millisecond,
		MaxBatch:         32,
		DefaultTimeout:   30 * time.Second,
		MaxTimeout:       2 * time.Minute,
		MaxRequestBytes:  8 << 20,
		MaxIngestBytes:   256 << 20,
		MaxNodes:         4 << 20,
		MaxStudySteps:    200,
		MaxStudySamples:  64,
	}
}

// servePipeline mirrors serveOptions for the traced replay.
func servePipeline() pipeline.Config {
	return pipeline.Config{
		Method: pipeline.MethodPowerRChol, Seed: serveSeed, Workers: serveWorkers, Prepared: true,
		Retry: pipeline.RetryPolicy{MaxAttempts: 3, Escalate: true},
	}
}

// servePCG is the iteration options the prepared Solver uses under the
// serve configuration: serial vector kernels, and the stagnation and
// divergence guards a multi-attempt retry policy arms.
func servePCG(ctx context.Context) pcg.Options {
	return pcg.Options{Tol: tol, MaxIter: 500, Ctx: ctx, StagnationWindow: 50, StagnationFactor: 0.5, DivergenceFactor: 1e4}
}

// serveReq is one distinct request of the pool and its referee answer.
type serveReq struct {
	body   []byte    // the JSON request
	b      []float64 // the dense right-hand side it describes
	probes []float64 // referee voltages at the probe nodes
}

// runServe drives an in-process serve.Server behind an httptest loopback
// listener with two closed-loop clients. Set-up (repeated) starts the
// server, ingests thupg10 and sends the first solve, which builds the
// cached solver. Each op is one POST /v1/solve carrying a seeded sparse
// current injection and asking back a fixed set of probe voltages, which
// must equal bit for bit a Workers=1 referee solved at set-up.
func runServe(cfg config) (*outcome, error) {
	ctx := context.Background()
	c, err := cases.ByName(serveCaseName)
	if err != nil {
		return nil, err
	}
	p, err := c.Build(cfg.size.serveScale)
	if err != nil {
		return nil, err
	}
	ingest, err := ingestBody(p.Sys)
	if err != nil {
		return nil, err
	}
	// The referee solves the system exactly as the server will decode it.
	sys, err := serve.DecodeSystemRequest(bytes.NewReader(ingest), serveConfig().MaxIngestBytes, 0)
	if err != nil {
		return nil, err
	}
	gridFP := serve.FormatFingerprint(powerrchol.FingerprintSystem(sys))
	pool, err := servePool(ctx, sys, gridFP, cfg.seed, cfg.size.poolSize)
	if err != nil {
		return nil, fmt.Errorf("referee: %w", err)
	}

	out := &outcome{clients: serveClients, layers: map[string]float64{}}
	var live *liveServer
	for cfg.moreSetup(out.setupS) {
		if live != nil {
			live.close()
		}
		runtime.GC() // start each repetition from a collected heap
		t0 := time.Now()
		live, err = startServer(ctx, cfg.tr, ingest, gridFP, pool[0].body)
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
	}
	defer live.close()

	check := func(resp *serve.SolveResponse, ref *serveReq) error {
		x, converged := cfg.plant.apply(resp.X, resp.Converged)
		switch {
		case !converged:
			return fmt.Errorf("served solve did not converge")
		case !(resp.Residual <= tol):
			return fmt.Errorf("served residual %.3e exceeds %.0e", resp.Residual, tol)
		case !sameBits(x, ref.probes):
			return fmt.Errorf("served probe voltages differ from the referee")
		}
		return nil
	}

	var (
		mu       sync.Mutex
		tracedMS []float64
		widths   = map[int]int{}
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	deadline := cfg.deadline()
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := newRefPair()
			defer func() {
				mu.Lock()
				out.refMS = append(out.refMS, rp.times...)
				mu.Unlock()
			}()
			for time.Now().Before(deadline) {
				op := int(next.Add(1) - 1)
				ref := &pool[op%len(pool)]
				traced := cfg.tr != nil && op%2 == 0
				t0 := time.Now()
				resp, err := live.solve(ref.body, op, traced)
				t1 := time.Now()
				lat := float64(t1.Sub(t0)) / 1e6
				u := rp.units(lat)
				if err == nil {
					err = check(resp, ref)
				}
				mu.Lock()
				if traced {
					cfg.tr.add("client", t0, t1, -1, op)
					tracedMS = append(tracedMS, lat)
					out.count(err)
					if resp != nil {
						widths[op] = resp.BatchWidth
					}
				} else {
					out.record(lat, u, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if cfg.tr != nil {
		if err := serveLayers(ctx, cfg, out, live, sys, pool, widths, tracedMS); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ingestBody encodes sys as a POST /v1/grids request.
func ingestBody(sys *graph.SDDM) ([]byte, error) {
	req := serve.SystemRequest{N: sys.N(), D: sys.D, Edges: make([][3]float64, len(sys.G.Edges))}
	for i, e := range sys.G.Edges {
		req.Edges[i] = [3]float64{float64(e.U), float64(e.V), e.W}
	}
	return json.Marshal(req)
}

// servePool draws the request pool from the seed and solves each request
// with a prepared Workers=1 referee, whose solves the repository's
// equivalence suites hold bitwise equal to one-shot solves and to the
// served solves at any worker count and batch width.
func servePool(ctx context.Context, sys *graph.SDDM, gridFP string, seed uint64, size int) ([]serveReq, error) {
	r := rng.New(seed)
	n := sys.N()
	probes := make([]int, serveProbes)
	for i := range probes {
		probes[i] = r.Intn(n)
	}
	referee, err := powerrchol.NewSolverContext(ctx, sys, serveOptions())
	if err != nil {
		return nil, err
	}
	pool := make([]serveReq, size)
	for k := range pool {
		req := serve.SolveRequest{Grid: gridFP, Nodes: make([]int, serveInject), Values: make([]float64, serveInject), Return: probes}
		b := make([]float64, n)
		for i := range req.Nodes {
			req.Nodes[i] = r.Intn(n)
			req.Values[i] = -(0.5 + r.Float64()) * 1e-3
			b[req.Nodes[i]] += req.Values[i]
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		res, err := referee.SolveContext(ctx, b)
		if err != nil {
			return nil, err
		}
		if rel := relResidual(sys, res.X, b); !(rel <= tol) {
			return nil, fmt.Errorf("reference residual %.3e exceeds %.0e", rel, tol)
		}
		pool[k] = serveReq{body: body, b: b, probes: make([]float64, len(probes))}
		for i, u := range probes {
			pool[k].probes[i] = res.X[u]
		}
	}
	return pool, nil
}

// liveServer is a running server, its loopback listener and a client.
type liveServer struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	cancel context.CancelFunc
}

// startServer starts a server, ingests the grid and sends the first solve
// (the cache build). On a traced run every request carrying the op
// header is timed as a "serve.handler" span around the public handler.
func startServer(ctx context.Context, tr *tracer, ingest []byte, gridFP string, first []byte) (*liveServer, error) {
	sctx, cancel := context.WithCancel(ctx)
	srv := serve.New(sctx, serveConfig())
	handler := srv.Handler()
	if tr != nil {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op, err := strconv.Atoi(r.Header.Get(opHeader))
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			if err == nil {
				tr.add("serve.handler", t0, time.Now(), -1, op)
			}
		})
	}
	l := &liveServer{
		srv:    srv,
		hs:     httptest.NewServer(handler),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		cancel: cancel,
	}
	var got struct {
		Grid string `json:"grid"`
	}
	if err := l.post("/v1/grids", ingest, -1, false, &got); err != nil {
		l.close()
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if got.Grid != gridFP {
		l.close()
		return nil, fmt.Errorf("ingest: server fingerprint %s, want %s", got.Grid, gridFP)
	}
	if _, err := l.solve(first, -1, false); err != nil {
		l.close()
		return nil, fmt.Errorf("first solve: %w", err)
	}
	return l, nil
}

func (l *liveServer) solve(body []byte, op int, traced bool) (*serve.SolveResponse, error) {
	var resp serve.SolveResponse
	if err := l.post("/v1/solve", body, op, traced, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// post sends one request and decodes a 200 response into dst.
func (l *liveServer) post(path string, body []byte, op int, traced bool, dst any) error {
	req, err := http.NewRequest(http.MethodPost, l.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, dst)
}

// close drains the server and stops everything it started.
func (l *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = l.srv.Shutdown(ctx) // a drain that gives up still cancels every goroutine
	l.client.CloseIdleConnections()
	l.hs.Close()
	l.cancel()
}

// serveLayers replays traced requests layer by layer, after the live
// load so as not to disturb it, and derives the serve and session
// metrics.
func serveLayers(ctx context.Context, cfg config, out *outcome, live *liveServer, sys *graph.SDDM, pool []serveReq, widths map[int]int, tracedMS []float64) error {
	tr := cfg.tr
	st := live.srv.Stats()
	sent := out.attempted + 1 // the timed requests and the set-up's first solve
	out.layers["serve.server_p50_ms"] = float64(st.P50Micros) / 1e3
	out.layers["serve.shed_ratio"] = float64(st.Shed) / float64(sent)
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		out.layers["serve.cache_hit_ratio"] = float64(st.CacheHits) / float64(total)
	}
	if st.Batches > 0 {
		out.layers["session.batch_width_mean"] = float64(st.BatchedRHS) / float64(st.Batches)
	}

	rp, err := newReplayer(ctx, tr, sys, pool)
	if err != nil {
		return err
	}
	ops := make([]int, 0, len(widths))
	for op := range widths {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	if len(ops) > serveReplays {
		ops = ops[:serveReplays]
	}
	for _, op := range ops {
		out.count(rp.replay(ctx, op, widths[op]))
	}

	totals := tr.opTotals()
	us := func(name string) float64 { return medianOver(totals, name) * 1e3 }
	out.layers["serve.decode_us"] = us("serve.decode")
	out.layers["serve.admission_wait_us"] = us("serve.admission")
	out.layers["serve.cache_lookup_us"] = us("serve.cache_lookup")
	out.layers["serve.encode_us"] = us("serve.encode")
	out.layers["session.ensemble_ms"] = medianOver(totals, "session.ensemble")
	var transport, wait []float64
	for _, m := range totals {
		h, ok := m["serve.handler"]
		if !ok {
			continue
		}
		transport = append(transport, m["client"]-h)
		if _, ok := m["session.ensemble"]; ok {
			wait = append(wait, h-m["serve.decode"]-m["serve.admission"]-m["serve.cache_lookup"]-m["session.ensemble"]-m["serve.encode"])
		}
	}
	out.layers["serve.transport_ms"] = median(transport)
	out.layers["session.batch_wait_ms"] = median(wait)
	for _, name := range []string{"graph.tocsc", "pipeline.reorder", "pipeline.factorize"} {
		out.layers[name+"_ms"] = tr.setupTotal(name)
	}
	pcgLayers(out.layers, totals, rp.iters, rp.sp)
	out.layers["powerrchol.t_tot_s_per_mnnz"] = (rp.sp.setupTotalMS + medianOver(totals, "pcg.solve")) / 1e3 / (float64(rp.sp.nnzA) / 1e6)
	out.traceLayers(tr, tracedMS)
	return nil
}

// replayer holds bench-owned copies of the layers a request passes
// through, built the way the server builds them.
type replayer struct {
	tr    *tracer
	sys   *graph.SDDM
	pool  []serveReq
	key   uint64 // the server's cache key
	sess  *session.Session
	cache *serve.Cache
	build func(context.Context) (*serve.Prepared, int64, error)
	gate  *serve.Gate
	sp    *split
	iters map[int]int
}

func newReplayer(ctx context.Context, tr *tracer, sys *graph.SDDM, pool []serveReq) (*replayer, error) {
	solver, err := powerrchol.NewSolverContext(ctx, sys, serveOptions())
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		tr:    tr,
		sys:   sys,
		pool:  pool,
		key:   powerrchol.Fingerprint(sys, serveOptions()),
		sess:  session.Wrap(solver),
		cache: serve.NewCache(serveConfig().CacheBudgetBytes, nil),
		build: func(context.Context) (*serve.Prepared, int64, error) {
			return &serve.Prepared{Solver: solver}, int64(solver.MemoryBytes()), nil
		},
		gate:  serve.NewGate(serveConfig().MaxInflight, serveConfig().MaxQueue),
		iters: map[int]int{},
	}
	if _, _, err := rp.cache.GetOrBuild(ctx, rp.key, rp.build); err != nil {
		return nil, err
	}
	rp.sp, err = replaySetup(ctx, sys, servePipeline(), tr, -1, -1)
	return rp, err
}

// replay runs one served request again through the public functions of
// each layer the server runs it through: request decoding, admission,
// the fingerprint-keyed cache lookup, a session.Ensemble of the width the
// live request was batched at, the response encoding — plus the solve
// split into PCG layers, whose probe voltages must equal the referee's.
func (rp *replayer) replay(ctx context.Context, op, width int) error {
	tr, n := rp.tr, rp.sys.N()
	ref := &rp.pool[op%len(rp.pool)]
	opID := tr.begin("op", -1, op)
	defer tr.end(opID)

	id := tr.begin("serve.decode", opID, op)
	req, err := serve.DecodeSolveRequest(bytes.NewReader(ref.body), serveConfig().MaxRequestBytes)
	var b []float64
	if err == nil {
		b, err = req.RHS(n)
	}
	if err == nil {
		err = req.CheckReturn(n)
	}
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("serve.admission", opID, op)
	err = rp.gate.Acquire(ctx)
	if err == nil {
		rp.gate.Release()
	}
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("serve.cache_lookup", opID, op)
	_, hit, err := rp.cache.GetOrBuild(ctx, powerrchol.Fingerprint(rp.sys, serveOptions()), rp.build)
	tr.end(id)
	if err != nil {
		return err
	}

	rhs := [][]float64{b}
	for i := 1; i < width; i++ {
		rhs = append(rhs, rp.pool[(op+i)%len(rp.pool)].b)
	}
	id = tr.begin("session.ensemble", opID, op)
	results, err := rp.sess.Ensemble(ctx, rhs)
	tr.end(id)
	if err != nil {
		return err
	}

	pres, err := rp.sp.solve(b, nil, servePCG(ctx), tr, opID, op)
	if err != nil {
		return err
	}
	rp.iters[op] = pres.Iterations
	if !sameBits(pres.X, results[0].X) {
		return fmt.Errorf("replayed PCG split differs from the replayed ensemble")
	}
	probes := make([]float64, len(req.Return))
	for i, u := range req.Return {
		probes[i] = pres.X[u]
	}
	if !sameBits(probes, ref.probes) {
		return fmt.Errorf("replayed probe voltages differ from the referee")
	}

	id = tr.begin("serve.encode", opID, op)
	err = json.NewEncoder(io.Discard).Encode(serve.SolveResponse{
		Grid: req.Grid, Solver: serve.FormatFingerprint(powerrchol.Fingerprint(rp.sys, serveOptions())),
		X: probes, Iterations: pres.Iterations, Residual: pres.Residual, Converged: pres.Converged,
		BatchWidth: width, CacheHit: hit,
	})
	tr.end(id)
	return err
}
