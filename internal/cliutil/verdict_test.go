package cliutil

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestVerdictSchemaPinned pins the wire-level JSON schema of silint's
// package and spec verdicts. Renaming or removing a key here is a
// breaking change for downstream consumers — the test spells out every
// field name so such a change cannot land silently.
func TestVerdictSchemaPinned(t *testing.T) {
	t.Parallel()
	set := VerdictSet{
		Tool: "silint",
		Verdicts: []Verdict{{
			Check:    "robustness-si",
			Target:   "example.com/pkg",
			OK:       false,
			Category: "write-skew",
			Theorem:  "Theorem 19, §6.1",
			Witness:  "w1 -RW*-> w2 -RW*-> w1",
			Pos:      "main.go:10:5",
			Tx:       "w1",
			Detail:   "dangerous cycle",
			Fixes: []SuggestedFix{{
				Obj:     "total",
				Txs:     []string{"w1", "w1@it2"},
				Pos:     "main.go:10:5",
				Rank:    1,
				Message: `promote read of "total" in tx w1, w1@it2`,
				Edits: []TextEdit{{
					Filename: "main.go",
					Offset:   120,
					End:      120,
					NewText:  "\n\tif err := tx.Promote(\"total\"); err != nil {\n\t\treturn err\n\t}",
				}},
			}},
		}},
		Exit: 1,
	}
	var buf bytes.Buffer
	if err := WriteVerdicts(&buf, set); err != nil {
		t.Fatal(err)
	}

	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tool", "verdicts", "exit"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("top-level key %q missing", key)
		}
	}
	verdict := raw["verdicts"].([]any)[0].(map[string]any)
	for _, key := range []string{
		"check", "target", "ok", "category", "theorem",
		"witness", "pos", "tx", "detail", "fixes",
	} {
		if _, ok := verdict[key]; !ok {
			t.Errorf("verdict key %q missing", key)
		}
	}
	fix := verdict["fixes"].([]any)[0].(map[string]any)
	for _, key := range []string{"obj", "txs", "pos", "rank", "message", "edits"} {
		if _, ok := fix[key]; !ok {
			t.Errorf("fix key %q missing", key)
		}
	}
	edit := fix["edits"].([]any)[0].(map[string]any)
	for _, key := range []string{"filename", "offset", "end", "new_text"} {
		if _, ok := edit[key]; !ok {
			t.Errorf("edit key %q missing", key)
		}
	}

	// Round trip: the schema decodes to identical values.
	var back VerdictSet
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Verdicts[0].Fixes[0].Obj != "total" ||
		back.Verdicts[0].Fixes[0].Edits[0].NewText == "" ||
		len(back.Verdicts[0].Fixes[0].Txs) != 2 {
		t.Errorf("round trip lost fix data: %+v", back.Verdicts[0].Fixes[0])
	}

	// Empty optional fields stay off the wire: a passing verdict emits
	// no fixes/category/witness keys.
	buf.Reset()
	if err := WriteVerdicts(&buf, VerdictSet{Tool: "silint", Verdicts: []Verdict{{Check: "robustness-si", Target: "app", OK: true}}}); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	verdict = raw["verdicts"].([]any)[0].(map[string]any)
	for _, key := range []string{"fixes", "category", "witness", "pos", "tx", "detail"} {
		if _, present := verdict[key]; present {
			t.Errorf("optional key %q emitted for a passing verdict", key)
		}
	}
}
