//go:build !linux

package frame

import "os"

// startWriteback is a no-op where sync_file_range(2) is missing: the
// next fsync writes the pages.
func startWriteback(*os.File) {}
