// Package block exports a blocking callee for lockcheck.
package block

import "sync"

// A Waiter parks the caller until its group drains.
type Waiter struct {
	WG sync.WaitGroup
}

// Drain blocks on the WaitGroup.
func (w *Waiter) Drain() {
	w.WG.Wait()
}
