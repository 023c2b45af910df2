package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sian/internal/histio"
	"sian/internal/model"
	"sian/internal/workload"
)

// historyFile writes the example history to a temp file and returns
// its path.
func historyFile(t *testing.T, name string, ex *workload.Example) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := histio.EncodeHistory(f, ex.History); err != nil {
		t.Fatal(err)
	}
	return path
}

// eventsFile writes the example history's event stream to a temp
// file and returns its path.
func eventsFile(t *testing.T, name string, ex *workload.Example) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := histio.EncodeEvents(f, histio.HistoryToEvents(ex.History)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWriteSkew(t *testing.T) {
	t.Parallel()
	path := historyFile(t, "ws", workload.WriteSkew())
	var out bytes.Buffer
	code, err := run([]string{path}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit = %d, want 1 (SER rejects write skew)", code)
	}
	s := out.String()
	for _, want := range []string{"SER  DISALLOWED", "SI   ALLOWED", "PSI  ALLOWED"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSingleModelWithWitness(t *testing.T) {
	t.Parallel()
	path := historyFile(t, "ws", workload.WriteSkew())
	var out bytes.Buffer
	code, err := run([]string{"-model", "si", "-witness", path}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d", code)
	}
	s := out.String()
	for _, want := range []string{"SI   ALLOWED", "WR(", "WW("} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunStdin(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := histio.EncodeHistory(&buf, workload.SessionGuarantees().History); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run([]string{"-model", "ser"}, &buf, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || !strings.Contains(out.String(), "ALLOWED") {
		t.Errorf("code=%d out=%q", code, out.String())
	}
}

// TestRunErrors: usage and processing errors exit 2 with an error.
func TestRunErrors(t *testing.T) {
	t.Parallel()
	doc := historyFile(t, "ws", workload.WriteSkew())
	for _, c := range []struct {
		args  []string
		stdin string
		want  string
	}{
		{[]string{"-model", "bogus"}, "{}", "unknown model"},
		{[]string{filepath.Join(t.TempDir(), "missing.json")}, "", "no such file"},
		{[]string{"a", "b"}, "", "at most one input file"},
		{nil, "not json", "line 1"},
		{[]string{"-init=false", doc}, "", "flag provided but not defined: -init"},
	} {
		var out bytes.Buffer
		code, err := run(c.args, strings.NewReader(c.stdin), &out, io.Discard)
		if code != 2 || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: code=%d err=%v, want 2 and an error containing %q", c.args, code, err, c.want)
		}
	}
}

// TestRunVerdictTable certifies each Figure 2 history and each
// committed fixture, as a document and as its event stream, with
// default flags and with one -model at a time: both kinds must give
// every model the verdict the paper assigns. Each input carries its
// own init transaction except Figure 2(a), which relies on -init-value.
func TestRunVerdictTable(t *testing.T) {
	t.Parallel()
	type entry struct {
		name string
		h    *model.History
		in   [5]bool // SER, SI, PSI, PC, GSI
	}
	var table []entry
	for _, ex := range []*workload.Example{workload.SessionGuarantees(), workload.LostUpdate(), workload.LongFork(), workload.WriteSkew()} {
		table = append(table, entry{ex.Name, ex.History, [5]bool{ex.InSER, ex.InSI, ex.InPSI, ex.InPC, ex.InGSI}})
	}
	for _, fx := range []entry{
		{name: "longfork_history.json", in: [5]bool{false, false, true, false, false}},
		{name: "writeskew_history.json", in: [5]bool{false, true, true, true, true}},
	} {
		f, err := os.Open(testdata(fx.name))
		if err != nil {
			t.Fatal(err)
		}
		fx.h, err = histio.DecodeHistory(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		table = append(table, fx)
	}
	models := []string{"SER", "SI", "PSI", "PC", "GSI"}
	for _, e := range table {
		var doc, events bytes.Buffer
		if err := histio.EncodeHistory(&doc, e.h); err != nil {
			t.Fatal(err)
		}
		if err := histio.EncodeEvents(&events, histio.HistoryToEvents(e.h)); err != nil {
			t.Fatal(err)
		}
		for kind, input := range map[string][]byte{"document": doc.Bytes(), "stream": events.Bytes()} {
			var out bytes.Buffer
			code, err := run(nil, bytes.NewReader(input), &out, io.Discard)
			if err != nil {
				t.Fatalf("%s %s: %v", e.name, kind, err)
			}
			all := 0
			for i, m := range models {
				verdict, wantCode := "ALLOWED", 0
				if !e.in[i] {
					verdict, wantCode, all = "DISALLOWED", 1, 1
				}
				if want := fmt.Sprintf("%-4s %s (", m, verdict); !strings.Contains(out.String(), want) {
					t.Errorf("%s %s: default run lacks %q:\n%s", e.name, kind, want, out.String())
				}
				code, err := run([]string{"-model", strings.ToLower(m)}, bytes.NewReader(input), io.Discard, io.Discard)
				if err != nil || code != wantCode {
					t.Errorf("%s %s -model %s: code=%d err=%v, want %d", e.name, kind, m, code, err, wantCode)
				}
			}
			if code != all {
				t.Errorf("%s %s: default run exit %d, want %d", e.name, kind, code, all)
			}
		}
	}
}

func TestRunDotOutput(t *testing.T) {
	t.Parallel()
	path := historyFile(t, "ws", workload.WriteSkew())
	dotPath := filepath.Join(t.TempDir(), "out.dot")
	var out bytes.Buffer
	code, err := run([]string{"-model", "si", "-dot", dotPath, path}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "digraph") {
		t.Errorf("dot file content: %s", data)
	}
	// '-' writes to stdout.
	out.Reset()
	if _, err := run([]string{"-model", "si", "-dot", "-", path}, strings.NewReader(""), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph dependencies") {
		t.Errorf("stdout missing dot: %s", out.String())
	}
}

// TestRunFixtures exercises the committed sample files in testdata/.
func TestRunFixtures(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code, err := run([]string{"../../testdata/longfork_history.json"}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"SI   DISALLOWED", "PSI  ALLOWED", "forbidden cycle"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestRunClassify(t *testing.T) {
	t.Parallel()
	path := historyFile(t, "ws", workload.WriteSkew())
	var out bytes.Buffer
	code, err := run([]string{"-classify", path}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "write skew") {
		t.Errorf("output: %s", out.String())
	}
	// A serializable history exits 0.
	path2 := historyFile(t, "ok", workload.SessionGuarantees())
	out.Reset()
	code, err = run([]string{"-classify", path2}, strings.NewReader(""), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || !strings.Contains(out.String(), "serializable") {
		t.Errorf("code=%d out=%s", code, out.String())
	}
}
