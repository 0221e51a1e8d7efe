package frame

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE from <fcntl.h>: start
// writing the range's dirty pages back, and do not wait for them.
const syncFileRangeWrite = 0x2

// startWriteback queues the regular file f's dirty pages for writing to
// the device. It is only a hint: an error leaves the pages to the next
// fsync, which reports any real failure.
func startWriteback(f *os.File) {
	_ = syscall.SyncFileRange(int(f.Fd()), 0, 0, syncFileRangeWrite)
}
