//go:build !linux

package journal

import "time"

// sleepFor waits d on the runtime's timer: syscall.Nanosleep is not there on
// every platform (darwin has none), and the millisecond rounding batch.go
// describes is epoll's. The window decides which frames share an fsync,
// never a frame's bytes or their order.
func sleepFor(d time.Duration) {
	time.Sleep(d)
}
