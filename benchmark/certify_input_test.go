package main

import (
	"bytes"
	"testing"

	"sian/internal/histio"
)

func encodeInputs(t *testing.T, seed int64) (hOff, hOn []byte) {
	t.Helper()
	in, err := genCertifyInputs(seed, smokeCertifySizes)
	if err != nil {
		t.Fatal(err)
	}
	var off, on bytes.Buffer
	if err := histio.EncodeHistory(&off, in.hOff); err != nil {
		t.Fatal(err)
	}
	if err := histio.EncodeEvents(&on, in.hOn); err != nil {
		t.Fatal(err)
	}
	if want := smokeCertifySizes.offTxns + 1; in.hOff.NumTransactions() != want {
		t.Errorf("H_off has %d transactions, want %d (init included)", in.hOff.NumTransactions(), want)
	}
	if want := smokeCertifySizes.onCommits + 1; in.onCommits != want {
		t.Errorf("H_on has %d commits, want %d (init included)", in.onCommits, want)
	}
	return off.Bytes(), on.Bytes()
}

// TestCertifyInputsDeterministic: equal seeds give byte-identical
// inputs — which is what makes candidate and slow-path counts exact —
// and different seeds give different ones.
func TestCertifyInputsDeterministic(t *testing.T) {
	off1, on1 := encodeInputs(t, 7)
	off2, on2 := encodeInputs(t, 7)
	if !bytes.Equal(off1, off2) {
		t.Error("H_off differs between two generations with the same seed")
	}
	if !bytes.Equal(on1, on2) {
		t.Error("H_on differs between two generations with the same seed")
	}
	off3, on3 := encodeInputs(t, 8)
	if bytes.Equal(off1, off3) || bytes.Equal(on1, on3) {
		t.Error("a different seed produced the same inputs")
	}
}
