// Package core reaches each imported fact from the analyzer that
// consumes it. The blocking and sending callees sit in statements that
// pgfacts' own taint walk never resolves, so lockcheck and sendblock are
// the first to look their packages up — concurrently.
package core

import (
	"sync"

	"example.com/internal/block"
	"example.com/internal/pump"
	"example.com/internal/taint"
)

type Cache struct {
	mu sync.Mutex
}

func (c *Cache) Flush(w *block.Waiter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.Drain() // want `c\.mu .*may be held across a call to Drain, which blocks`
}

func viaDep(m map[string]float64) float64 {
	return taint.SumMap(m) // want `determinism-tainted value reaches float result.*calls SumMap`
}

func startPump(ch chan int) {
	go pump.Pump(ch) // want `go statement spawns Pump, which may block forever on a channel send`
}
