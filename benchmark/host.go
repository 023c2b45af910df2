package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostInfo is the provenance recorded with every result: enough to tell
// whether two result files may be compared at all.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Kernel     string `json:"kernel"`
	ScratchDir string `json:"scratch_dir"`
	ScratchFS  string `json:"scratch_fs"`
	// Undersized marks a host with fewer CPUs than the two sessions the
	// workloads run: numbers from it measure the scheduler.
	Undersized bool `json:"undersized"`
	// CalibrationNS is how long this process took for a fixed piece of
	// single-threaded work (see calibrate) just before the run. A shared
	// host drifts between speed regimes minutes long; two runs whose
	// calibrations differ were not taken on the same machine, whatever
	// its name.
	CalibrationNS int64 `json:"calibration_ns"`
}

func gatherHost(scratch string) hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
		Kernel:     "unknown",
		ScratchDir: scratch,
		ScratchFS:  "unknown",
	}
	h.Undersized = h.NumCPU < sessions || h.GOMAXPROCS < sessions
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitRev = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if fs, err := fsType(scratch); err == nil {
		h.ScratchFS = fs
	}
	h.CalibrationNS = calibrate()
	return h
}

// calibrate times a fixed computation — FNV-1a over a 4 MiB buffer that
// it keeps rewriting, so the ALU, the caches and memory all take part —
// and returns the fastest of five repetitions (~10 ms each): the
// fastest is the one the rest of the host disturbed least.
func calibrate() int64 {
	buf := make([]byte, 4<<20)
	best := int64(0)
	for rep := 0; rep < 5; rep++ {
		t0 := nanos()
		h := uint32(2166136261)
		for pass := 0; pass < 2; pass++ {
			for i := range buf {
				h = (h ^ uint32(buf[i])) * 16777619
				buf[i] = byte(h)
			}
		}
		if d := nanos() - t0; best == 0 || d < best {
			best = d
		}
	}
	return best
}

func (h hostInfo) String() string {
	s := fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s rev=%s kernel=%s scratch=%s (%s) calibration=%.2fms",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GitRev, h.Kernel, h.ScratchDir, h.ScratchFS, float64(h.CalibrationNS)/1e6)
	if h.Undersized {
		s += fmt.Sprintf("\n*** WARNING: fewer than %d CPUs for %d closed-loop sessions: these numbers measure the scheduler, not the stack ***", sessions, sessions)
	}
	return s
}

// fsMagic names the filesystems a scratch directory is likely to be on.
var fsMagic = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x858458f6: "ramfs", 0x794c7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
}

// fsType reports the filesystem holding dir (or its nearest existing
// ancestor, so it can be asked before the directory is made).
func fsType(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		var st syscall.Statfs_t
		err := syscall.Statfs(dir, &st)
		if err == nil {
			if name, ok := fsMagic[int64(st.Type)&0xffffffff]; ok {
				return name, nil
			}
			return fmt.Sprintf("0x%x", int64(st.Type)&0xffffffff), nil
		}
		if !os.IsNotExist(err) || dir == filepath.Dir(dir) {
			return "", fmt.Errorf("statfs %s: %w", dir, err)
		}
		dir = filepath.Dir(dir)
	}
}

// rssBytes is the process's current resident set.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64) // malformed statm reads as 0, like a missing one
	return pages * int64(os.Getpagesize())
}

// peakRSSBytes is the process's resident-set high-water mark.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}
