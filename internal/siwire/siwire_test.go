package siwire_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"sync"
	"testing"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/siwire"
	"sian/internal/storage/wal"
)

// startServer runs an in-process siwire server over an SI engine with
// a WAL driver and returns its address.
func startServer(t *testing.T, dir string) (*siwire.Server, *engine.DB, string) {
	t.Helper()
	drv, err := wal.Open(wal.Options{Dir: dir, NoSync: true, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.New(engine.SI, engine.Config{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	srv := siwire.NewServer(siwire.ServerConfig{
		DB:   db,
		Info: func() siwire.Info { return siwire.Info{Name: "test", Engine: "si", Durable: true} },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Errorf("db Close: %v", err)
		}
	})
	return srv, db, ln.Addr().String()
}

// TestWireBasics covers the whole opcode surface over one connection:
// begin/write/commit, snapshot reads, uninitialized reads, abort,
// info, and the durability LSN on commit responses.
func TestWireBasics(t *testing.T) {
	t.Parallel()
	_, _, addr := startServer(t, t.TempDir())
	c, err := siwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("x"); !errors.Is(err, siwire.ErrUninitialized) {
		t.Fatalf("read of fresh object: %v, want ErrUninitialized", err)
	}
	if err := c.Write("x", 41); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Read("x"); err != nil || v != 41 {
		t.Fatalf("read-your-writes: %d, %v", v, err)
	}
	lsn, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Fatal("commit over a durable driver returned LSN 0")
	}

	// Abort leaves no trace.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("x", 99); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Read("x"); err != nil || v != 41 {
		t.Fatalf("after abort: %d, %v", v, err)
	}
	if lsn2, err := c.Commit(); err != nil || lsn2 != 0 {
		t.Fatalf("read-only commit: lsn %d, %v (want 0, nil)", lsn2, err)
	}

	info, err := c.Info()
	if err != nil || info.Name != "test" || !info.Durable {
		t.Fatalf("info: %+v, %v", info, err)
	}
}

// TestWireConflictAndRetry pins first-committer-wins over the wire:
// two clients race read-modify-write increments; Transact's retry
// loop must drive the counter to exactly the total attempt count.
func TestWireConflictAndRetry(t *testing.T) {
	t.Parallel()
	_, _, addr := startServer(t, t.TempDir())

	seed, err := siwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Transact(func(tx *siwire.ClientTx) error {
		return tx.Write("ctr", 0)
	}); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	const workers = 4
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := siwire.Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			var last uint64
			for i := 0; i < perWorker; i++ {
				lsn, err := c.Transact(func(tx *siwire.ClientTx) error {
					v, err := tx.Read("ctr")
					if err != nil {
						return err
					}
					return tx.Write("ctr", v+1)
				})
				if err != nil {
					t.Errorf("transact: %v", err)
					return
				}
				if lsn <= last {
					t.Errorf("acknowledged LSNs not increasing: %d after %d", lsn, last)
					return
				}
				last = lsn
			}
		}()
	}
	wg.Wait()

	c, err := siwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read("ctr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if v != workers*perWorker {
		t.Errorf("counter = %d, want %d", v, workers*perWorker)
	}
}

// TestWireProtocolErrors pins the error responses: operations without
// an open transaction, double begin.
func TestWireProtocolErrors(t *testing.T) {
	t.Parallel()
	_, _, addr := startServer(t, t.TempDir())
	c, err := siwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read("x"); err == nil {
		t.Error("read without a transaction succeeded")
	}
	if _, err := c.Commit(); err == nil || errors.Is(err, siwire.ErrConflict) {
		t.Errorf("commit without a transaction: %v", err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err == nil {
		t.Error("double begin succeeded")
	}
}

// TestServeAfterClose: a Close that wins the race against Serve's
// goroutine is still graceful. Serve returns nil and closes the
// listener it was handed.
func TestServeAfterClose(t *testing.T) {
	t.Parallel()
	srv := siwire.NewServer(siwire.ServerConfig{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err != nil {
		t.Fatalf("Serve after Close: %v, want nil", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener still open after Serve: Accept = %v", err)
	}
}

// TestHTTPFallback drives the JSON endpoint: a write transaction, a
// read-back, per-op results and the durability LSN.
func TestHTTPFallback(t *testing.T) {
	t.Parallel()
	srv, _, _ := startServer(t, t.TempDir())
	hs := httptest.NewServer(srv.HTTPHandler())
	defer hs.Close()

	post := func(body string) (int, siwire.HTTPResponse) {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+"/v1/transact", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out siwire.HTTPResponse
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}

	code, out := post(`{"ops":[{"op":"write","obj":"h","val":7}]}`)
	if code != 200 || out.LSN == 0 {
		t.Fatalf("write transact: code %d, %+v", code, out)
	}
	code, out = post(`{"ops":[{"op":"read","obj":"h"},{"op":"write","obj":"h","val":8},{"op":"read","obj":"h"}]}`)
	if code != 200 {
		t.Fatalf("rmw transact: code %d", code)
	}
	if len(out.Results) != 3 || out.Results[0] == nil || *out.Results[0] != 7 ||
		out.Results[1] != nil || out.Results[2] == nil || *out.Results[2] != 8 {
		t.Fatalf("rmw results: %v", fmtResults(out.Results))
	}
	if code, _ := post(`{"ops":[{"op":"read","obj":"missing"}]}`); code != 422 {
		t.Errorf("uninitialized read: code %d, want 422", code)
	}
	if code, _ := post(`{"ops":[{"op":"bogus","obj":"h"}]}`); code != 400 {
		t.Errorf("bad op: code %d, want 400", code)
	}

	// Info endpoint.
	resp, err := hs.Client().Get(hs.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info siwire.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "test" {
		t.Errorf("info: %+v", info)
	}
}

func fmtResults(rs []*model.Value) string {
	out := ""
	for _, r := range rs {
		if r == nil {
			out += "nil "
		} else {
			out += fmt.Sprint(*r, " ")
		}
	}
	return out
}

// TestServerCloseAbortsOpenTx pins shutdown semantics: closing the
// server severs connections and aborts their open transactions, so a
// later client never sees half a transaction.
func TestServerCloseAbortsOpenTx(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	srv, db, addr := startServer(t, dir)
	c, err := siwire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Transact(func(tx *siwire.ClientTx) error { return tx.Write("x", 1) }); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("x", 2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The buffered write died with the connection.
	sess := db.Session("check")
	m, err := sess.Begin("check")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	if v, err := m.Read("x"); err != nil || v != 1 {
		t.Fatalf("after server close: x = %d, %v (want 1)", v, err)
	}
}
