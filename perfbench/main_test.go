package main

import (
	"testing"
)

// testSize shrinks every workload so that the self-test runs in seconds.
var testSize = sizes{gridSide: 24, serveScale: 0.1, setupReps: 1, poolSize: 4}

func runSmall(t *testing.T, name string, traced bool, plant *fault) *outcome {
	t.Helper()
	cfg := config{seed: 7, seconds: 0.3, size: testSize, plant: plant}
	if traced {
		cfg.tr = newTracer()
	}
	out, err := workloads[name](cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if out.attempted < 1 {
		t.Fatalf("%s: no op attempted", name)
	}
	return out
}

// TestPlantedFaultsCounted plants a wrong answer in every op of every
// workload and requires each one to be counted as failed.
func TestPlantedFaultsCounted(t *testing.T) {
	faults := map[string]*fault{
		"wrong value":   {wrongValue: true},
		"not converged": {notConverged: true},
	}
	for name := range workloads {
		for fname, f := range faults {
			out := runSmall(t, name, false, f)
			if out.failed != out.attempted {
				t.Errorf("%s with %s: %d of %d ops failed, want all", name, fname, out.failed, out.attempted)
			}
		}
	}
}

// TestCleanRuns requires every op of an unplanted run, traced or not, to
// pass its checks, and a traced run to cover its ops with layer spans
// (checked by traceLayers) and to report every per-layer metric.
func TestCleanRuns(t *testing.T) {
	onPath := map[string][]string{
		"dc-cold":   {"powergrid.parse_ms", "powergrid.write_ms", "pipeline.factorize_ms", "pcg.precond_ms"},
		"transient": {"graph.tocsc_ms", "pcg.spmv_ms", "powergrid.companion_ms", "session.step_ms"},
		"serve":     {"serve.decode_us", "serve.cache_lookup_us", "session.ensemble_ms", "pcg.iterations"},
	}
	for name := range workloads {
		if out := runSmall(t, name, false, nil); out.failed != 0 {
			t.Errorf("%s: %d of %d ops failed", name, out.failed, out.attempted)
		} else if m := out.endToEnd(1); m["latency_p50_ref"].Value <= 0 || m["setup_s"].Value <= 0 {
			t.Errorf("%s: end-to-end metrics %v", name, m)
		}
		out := runSmall(t, name, true, nil)
		if out.failed != 0 {
			t.Errorf("%s traced: %d of %d ops failed", name, out.failed, out.attempted)
		}
		m := out.layerMetrics(1)
		if len(m) != len(layerUnits) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", name, len(m), len(layerUnits))
		}
		for _, k := range onPath[name] {
			if m[k].Value <= 0 {
				t.Errorf("%s traced: %s = %v, want > 0", name, k, m[k].Value)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := quantile(v, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(v, 0.9); got != 3.7 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
}
