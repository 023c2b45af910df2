package engine_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"sian/internal/depgraph"
	. "sian/internal/engine"
	"sian/internal/model"
	"sian/internal/storage/wal"
)

// crashCounters are the hot keys of the SSI crash leg.
var crashCounters = []model.Obj{"crash/0", "crash/1"}

// TestHelperSSICrash is not a test: it is the child process of
// TestSSICrashRecovery, re-executing this test binary as a 4-session
// SSI hot-key loop over a fsyncing WAL. It prints one "ack" line per
// acknowledged increment and runs until the parent SIGKILLs it.
func TestHelperSSICrash(t *testing.T) {
	dir := os.Getenv("GO_SSI_CRASH_DIR")
	if dir == "" {
		t.Skip("helper process, not a test")
	}
	drv, err := wal.Open(wal.Options{Dir: dir, Model: depgraph.SER})
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(SSI, Config{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	init := make(map[model.Obj]model.Value)
	for _, x := range crashCounters {
		init[x] = 0
	}
	if err := db.Initialize(init); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.Session(fmt.Sprintf("crash%d", w))
			for n := w; ; n++ {
				x, other := crashCounters[n%2], crashCounters[(n+1)%2]
				var v model.Value
				err := sess.Transact(func(tx *Tx) error {
					// Reading the other counter gives every pair of
					// increments on different keys the write-skew shape
					// the veto exists for.
					if _, err := tx.Read(other); err != nil {
						return err
					}
					cur, err := tx.Read(x)
					if err != nil {
						return err
					}
					v = cur + 1
					return tx.Write(x, v)
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "helper:", err)
					return
				}
				fmt.Printf("ack %s %d\n", x, v)
			}
		}(w)
	}
	wg.Wait()
	t.Fatal("helper sessions stopped before the kill")
}

// TestSSICrashRecovery is durable SSI, closed-loop and killed: the
// child's WAL must replay and certify serializable after a SIGKILL
// mid-run, with every increment the child acknowledged present. An
// acknowledgement is printed only after Transact returned, and so only
// after the transaction's one commit record was fsynced.
func TestSSICrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a child process and fsyncs a real WAL")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestHelperSSICrash$")
	cmd.Env = append(os.Environ(), "GO_SSI_CRASH_DIR="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// Collect acknowledgements; only newline-terminated lines count, so
	// a line the kill cut short is never mistaken for a smaller value.
	const enough = 60
	var mu sync.Mutex
	acked := make(map[model.Obj]model.Value)
	reached := make(chan struct{})
	eof := make(chan struct{})
	go func() {
		defer close(eof)
		r := bufio.NewReader(stdout)
		for n := 0; ; {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			var x model.Obj
			var v model.Value
			if _, err := fmt.Sscanf(line, "ack %s %d\n", &x, &v); err != nil {
				continue
			}
			mu.Lock()
			if v > acked[x] {
				acked[x] = v
			}
			mu.Unlock()
			if n++; n == enough {
				close(reached)
			}
		}
	}()
	select {
	case <-reached:
	case <-eof:
		t.Fatal("child exited before the kill")
	case <-time.After(60 * time.Second):
		t.Fatalf("child acknowledged fewer than %d commits in 60s", enough)
	}

	// SIGKILL mid-flight: no shutdown hook, no final fsync.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	killed = true
	<-eof
	cmd.Wait()

	drv, err := wal.Open(wal.Options{Dir: dir, NoSync: true, Model: depgraph.SER})
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer drv.Close()
	info := drv.Recovery()
	if !info.Certified {
		t.Fatalf("recovery not certified: %s", info.Verdict)
	}
	t.Logf("killed after ≥ %d acknowledged commits: %s", enough, info.Verdict)
	// The counters only grow by one per commit, so a recovered value at
	// or above an acknowledged one means that commit's record survived
	// (more may have: fsynced, but killed before the ack was printed).
	for x, want := range acked {
		if v, ok := drv.Latest(x); !ok || v.Val < want {
			t.Errorf("acknowledged commit lost: %s recovered at %+v, acknowledged %d", x, v, want)
		}
	}
	if info.Commits <= enough {
		t.Errorf("recovery replayed %d commits, want more than the %d acknowledged", info.Commits, enough)
	}
}
