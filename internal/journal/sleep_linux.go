package journal

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling thread for d in nanosleep(2). Unlike a runtime
// timer it is not waited out in the scheduler's epoll_wait, so it ends when
// it says, not at the next whole millisecond after whatever woke the process
// last (see batch.go). An early return — a signal — is resumed. The window
// decides which frames share an fsync, never a frame's bytes or their order.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}
