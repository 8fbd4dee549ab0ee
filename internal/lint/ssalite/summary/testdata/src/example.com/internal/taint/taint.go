// Package taint exports a map-order-tainted result for detflow.
package taint

// SumMap folds a map in iteration order.
func SumMap(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
