package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRunGolden pins the whole default output — every cell of every
// table — to testdata/tables.txt, so a flipped verdict anywhere fails.
// Regenerate with go test -run TestRunGolden ./cmd/sitables -update
// after an intended change.
func TestRunGolden(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "tables.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", golden, out.Bytes(), want)
	}
}
