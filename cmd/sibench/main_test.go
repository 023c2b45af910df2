package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRunRegistersCertified(t *testing.T) {
	t.Parallel()
	for _, eng := range []string{"si", "ser", "psi"} {
		eng := eng
		t.Run(eng, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			code, err := run([]string{
				"-engine", eng, "-workload", "registers",
				"-sessions", "2", "-txs", "5", "-ops", "2", "-objects", "3",
				"-certify",
			}, &out, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if code != 0 {
				t.Errorf("exit = %d\n%s", code, out.String())
			}
			if !strings.Contains(out.String(), "history certified") {
				t.Errorf("output: %s", out.String())
			}
		})
	}
}

func TestRunWriteSkewWorkload(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code, err := run([]string{"-engine", "ser", "-workload", "writeskew", "-txs", "5"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "write-skew anomalies: 0 / 5") {
		t.Errorf("SER engine should produce zero anomalies:\n%s", out.String())
	}
}

func TestRunTransfersWorkload(t *testing.T) {
	t.Parallel()
	for _, chopped := range []string{"-chopped=false", "-chopped=true"} {
		var out bytes.Buffer
		code, err := run([]string{
			"-engine", "si", "-workload", "transfers",
			"-sessions", "2", "-txs", "3", "-objects", "4", "-hops", "2", chopped,
		}, &out, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if code != 0 || !strings.Contains(out.String(), "transfers:") {
			t.Errorf("%s: code=%d out=%s", chopped, code, out.String())
		}
	}
}

func TestRunLongForkWorkload(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code, err := run([]string{"-engine", "psi", "-workload", "longfork", "-certify"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "history certified PSI") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if _, err := run([]string{"-engine", "bogus"}, &out, io.Discard); err == nil {
		t.Error("bogus engine accepted")
	}
	if _, err := run([]string{"-workload", "bogus"}, &out, io.Discard); err == nil {
		t.Error("bogus workload accepted")
	}
	if _, err := run([]string{"-engine", "si", "-workload", "longfork"}, &out, io.Discard); err == nil {
		t.Error("longfork on SI engine accepted")
	}
}

func TestRunBankingWorkload(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code, err := run([]string{"-engine", "si", "-workload", "banking", "-atomic-lookup", "-certify"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "spliced history allowed by SI: false") {
		t.Errorf("Figure 5 staging output:\n%s", out.String())
	}
	out.Reset()
	if _, err := run([]string{"-engine", "si", "-workload", "banking", "-certify"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "spliced history allowed by SI: true") {
		t.Errorf("Figure 6 staging output:\n%s", out.String())
	}
}

func TestRunSSIEngine(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code, err := run([]string{
		"-engine", "ssi", "-workload", "registers",
		"-sessions", "2", "-txs", "4", "-ops", "2", "-objects", "3", "-certify",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "history certified SER") {
		t.Errorf("SSI history should certify SER:\n%s", out.String())
	}
}

func TestRunSmallBankWorkload(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code, err := run([]string{
		"-engine", "ssi", "-workload", "smallbank",
		"-sessions", "2", "-txs", "10", "-objects", "4",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "0 overdrawn customers") {
		t.Errorf("SSI smallbank output:\n%s", out.String())
	}
}
