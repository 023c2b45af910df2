package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRunWitnessGolden pins sicheck -witness on the committed long-fork
// and write-skew histories under all five models to
// testdata/<history>.witness.txt: each verdict, the axiom it is
// attributed to, the forbidden cycle of a rejection and the witness
// graph of a member. Regenerate with
// go test -run TestRunWitnessGolden ./cmd/sicheck -update after an
// intended change.
func TestRunWitnessGolden(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"longfork_history", "writeskew_history"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			path := filepath.Join("..", "..", "testdata", name+".json")
			code, err := run([]string{"-model", "all", "-witness", path}, strings.NewReader(""), &out, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if code != 1 {
				t.Errorf("exit = %d, want 1 (SER rejects both)", code)
			}
			golden := filepath.Join("testdata", name+".witness.txt")
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
		})
	}
}
