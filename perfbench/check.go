package main

import (
	"fmt"
	"math"

	"powerrchol"
	"powerrchol/internal/graph"
	"powerrchol/internal/sparse"
)

// Every operation's answer is checked outside its timed interval:
//   - the solve converged;
//   - the relative residual ‖b − A·x‖/‖b‖, recomputed here from the
//     system, is at most the tolerance;
//   - x is bitwise equal to an independently computed reference, compared
//     by powerrchol.FingerprintVector (the serve workload compares the
//     returned probe voltages bit for bit instead).

// tol is the relative residual target of every workload (the paper's).
const tol = 1e-6

// fault is a planted wrong answer, applied after an op is timed and
// before it is checked, so that the self-test can prove the checks count
// it.
type fault struct {
	wrongValue   bool // move one solution entry (a probe voltage on serve) by one ulp
	notConverged bool // report the solve as not converged
}

// apply corrupts a copy of the answer; the workload's own state, which
// later ops may depend on, is left alone.
func (f *fault) apply(x []float64, converged bool) ([]float64, bool) {
	if f == nil {
		return x, converged
	}
	if f.wrongValue {
		x = append([]float64(nil), x...)
		x[len(x)/2] = math.Nextafter(x[len(x)/2], math.Inf(1))
	}
	return x, converged && !f.notConverged
}

// checkSolution applies the three checks to one solve of sys·x = b.
func checkSolution(sys *graph.SDDM, b, x []float64, converged bool, refFP uint64) error {
	if !converged {
		return fmt.Errorf("solve did not converge")
	}
	if rel := relResidual(sys, x, b); !(rel <= tol) {
		return fmt.Errorf("recomputed relative residual %.3e exceeds %.0e", rel, tol)
	}
	if fp := powerrchol.FingerprintVector(x); fp != refFP {
		return fmt.Errorf("solution fingerprint %016x differs from the reference %016x", fp, refFP)
	}
	return nil
}

// relResidual recomputes ‖b − A·x‖₂/‖b‖₂ from the system's edge list.
func relResidual(sys *graph.SDDM, x, b []float64) float64 {
	y := make([]float64, sys.N())
	sys.MulVec(y, x)
	sparse.Axpy(y, -1, b)
	nb := sparse.Norm2(b)
	if nb == 0 {
		return sparse.Norm2(y)
	}
	return sparse.Norm2(y) / nb
}

// sameBits reports whether two vectors are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
