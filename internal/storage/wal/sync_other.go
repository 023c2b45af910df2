//go:build !linux

package wal

import "os"

// preallocate is unsupported off Linux: segments grow with each
// append, and datasync's full sync flushes the size with the data.
func preallocate(*os.File, int64) (bool, error) { return false, nil }

// datasync is a full sync off Linux.
func datasync(f *os.File) error { return f.Sync() }
