package cliutil

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestObsFlagsDisabled(t *testing.T) {
	t.Parallel()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterObsFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	o, err := f.Start("x", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if o.Registry == nil {
		t.Error("Start without flags should still build a registry")
	}
	if o.Tracer != nil || o.Server != nil || o.Serving() {
		t.Errorf("disabled flags built tracer/server: %+v", o)
	}
	if code, err := o.Finish(0, nil, io.Discard, &stderr); code != 0 || err != nil {
		t.Errorf("Finish = (%d, %v), want (0, nil)", code, err)
	}
	if stderr.Len() != 0 {
		t.Errorf("disabled obs wrote %q", stderr.String())
	}
}

func TestObsFlagsFinishPassthrough(t *testing.T) {
	t.Parallel()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterObsFlags(fs)
	if err := fs.Parse([]string{"-trace", "-metrics", "-"}); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	o, err := f.Start("x", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if o.Tracer == nil {
		t.Fatal("-trace should build a tracer")
	}
	done := o.Tracer.Phase("work")
	done()
	wantErr := fmt.Errorf("boom")
	if code, err := o.Finish(1, wantErr, &stdout, &stderr); code != 1 || err != wantErr {
		t.Errorf("Finish = (%d, %v), want passthrough (1, boom)", code, err)
	}
	if !strings.Contains(stderr.String(), "phase=work") {
		t.Errorf("tracer report missing from stderr: %q", stderr.String())
	}
	if !strings.Contains(stdout.String(), "phase_duration_ns") {
		t.Errorf("-metrics - dump missing from stdout: %q", stdout.String())
	}
}

func TestObsFlagsServe(t *testing.T) {
	t.Parallel()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterObsFlags(fs)
	if err := fs.Parse([]string{"-serve", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	o, err := f.Start("mytool", &stderr)
	if err != nil {
		t.Skipf("listen: %v", err) // sandboxed environments may forbid sockets
	}
	defer o.Finish(0, nil, io.Discard, io.Discard)
	if !o.Serving() {
		t.Fatal("-serve should start the plane")
	}
	o.Registry.Counter("demo_total").Add(9)
	for _, path := range []string{"/healthz", "/metrics", "/metrics.json", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + o.Server.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, body %q", path, resp.StatusCode, body)
		}
		if path == "/metrics" && !strings.Contains(string(body), "demo_total 9") {
			t.Errorf("/metrics missing registry series:\n%s", body)
		}
		if path == "/healthz" && !strings.Contains(string(body), `"name": "mytool"`) {
			t.Errorf("/healthz missing component name:\n%s", body)
		}
	}
}
