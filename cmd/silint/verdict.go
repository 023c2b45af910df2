package main

import (
	"encoding/json"
	"io"

	"sian/internal/silint"
)

// Verdict is the machine-readable outcome of one static check: silint
// emits it for Go packages and JSON specs alike, so downstream tooling
// consumes a single schema whichever input was checked.
type Verdict struct {
	// Check identifies the analysis, e.g. "robustness-si",
	// "robustness-psi", "chopping-si".
	Check string `json:"check"`
	// Target names what was checked: a package import path, an app
	// file, or a program set.
	Target string `json:"target"`
	// OK reports that the check passed (robust / correct chopping).
	OK bool `json:"ok"`
	// Category classifies a failure, e.g. "write-skew", "long-fork",
	// "incorrect-chopping".
	Category string `json:"category,omitempty"`
	// Theorem cites the paper result behind the check.
	Theorem string `json:"theorem,omitempty"`
	// Witness renders the dangerous or critical cycle on failure.
	Witness string `json:"witness,omitempty"`
	// Pos is a file:line:col source anchor (package diagnostics only).
	Pos string `json:"pos,omitempty"`
	// Tx labels the anchoring transaction when known.
	Tx string `json:"tx,omitempty"`
	// Detail carries the human-readable message.
	Detail string `json:"detail,omitempty"`
	// Fixes are the repair advisor's verified suggestions, computed for
	// package robustness diagnostics: read→write promotions whose
	// application makes the check pass.
	Fixes []SuggestedFix `json:"fixes,omitempty"`
}

// SuggestedFix is one read→write promotion of a verified repair, in
// the verdict schema: silint.SuggestedFix with its position rendered
// as file:line:col.
type SuggestedFix struct {
	// Obj is the object whose read is promoted.
	Obj string `json:"obj"`
	// Txs are the labels of the promoted transaction instances.
	Txs []string `json:"txs,omitempty"`
	// Pos is the promoting transaction's call site (file:line:col).
	Pos string `json:"pos,omitempty"`
	// Rank groups the fixes of one repair alternative; apply every fix
	// of a rank together. Rank 1 is the advisor's first choice.
	Rank int `json:"rank"`
	// Message is the human-readable hint.
	Message string `json:"message"`
	// Edits are textual insertions implementing the promotion.
	Edits []silint.TextEdit `json:"edits,omitempty"`
}

// VerdictSet is a tool run's complete JSON output.
type VerdictSet struct {
	// Tool is the emitting command name.
	Tool string `json:"tool"`
	// Verdicts lists one entry per executed check.
	Verdicts []Verdict `json:"verdicts"`
	// Exit is the process exit code the run will return
	// (0 all OK, 1 at least one violation, 2 analysis error).
	Exit int `json:"exit"`
}

// WriteVerdicts emits the set as indented JSON followed by a newline.
func WriteVerdicts(w io.Writer, set VerdictSet) error {
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
