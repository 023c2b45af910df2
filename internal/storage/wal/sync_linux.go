package wal

import (
	"errors"
	"os"
	"syscall"
)

// preallocate extends f's allocation to size bytes with fallocate(2)
// mode 0: the file's size becomes size, the new bytes read as zeros,
// and later writes inside them change no file size. It reports false,
// with no error, when the file system cannot preallocate.
func preallocate(f *os.File, size int64) (bool, error) {
	err := withFd(f, func(fd int) error { return syscall.Fallocate(fd, 0, 0, size) })
	if errors.Is(err, syscall.EOPNOTSUPP) || errors.Is(err, syscall.ENOSYS) {
		return false, nil
	}
	return err == nil, err
}

// datasync flushes f's data and only the metadata needed to read it
// back (fdatasync(2)). Inside a preallocated size that is the data
// alone; a size change is still flushed, so it is correct without
// preallocation too.
func datasync(f *os.File) error {
	return withFd(f, syscall.Fdatasync)
}

// withFd runs call on f's descriptor, retrying on EINTR. The descriptor
// stays referenced for the call, so a concurrent Close cannot recycle
// it underneath.
func withFd(f *os.File, call func(fd int) error) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var cerr error
	if err := rc.Control(func(fd uintptr) {
		for {
			if cerr = call(int(fd)); cerr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	return cerr
}
