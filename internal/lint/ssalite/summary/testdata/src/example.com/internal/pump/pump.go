// Package pump exports an unproven send for sendblock.
package pump

// Pump forwards one value on a channel it knows nothing about.
func Pump(ch chan int) {
	ch <- 1
}
