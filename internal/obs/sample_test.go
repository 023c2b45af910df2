package obs

import "testing"

// TestSamplerPicksOneInSampleEvery checks the rule callers document:
// the first event is picked, picks average one in SampleEvery, and no
// gap exceeds 2·SampleEvery-1.
func TestSamplerPicksOneInSampleEvery(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 1 << 40} {
		var s Sampler
		if seed != 0 {
			s.Seed(seed)
		}
		if !s.Pick() {
			t.Fatalf("seed %d: the first event was not picked", seed)
		}
		const n = 64_000
		picks, gap, maxGap := 1, 0, 0
		for i := 1; i < n; i++ {
			gap++
			if s.Pick() {
				picks++
				maxGap = max(maxGap, gap)
				gap = 0
			}
		}
		if want := n / SampleEvery; picks < want*9/10 || picks > want*11/10 {
			t.Errorf("seed %d: %d picks in %d events, want %d ± 10%%", seed, picks, n, want)
		}
		if maxGap > 2*SampleEvery-1 {
			t.Errorf("seed %d: gap %d, want ≤ %d", seed, maxGap, 2*SampleEvery-1)
		}
	}
}

// TestSamplerBreaksPeriodicStreams checks that a stream repeating with
// a period dividing SampleEvery has every phase sampled: a fixed stride
// of SampleEvery would time one phase only.
func TestSamplerBreaksPeriodicStreams(t *testing.T) {
	var s Sampler
	const period = 8
	var byPhase [period]int
	for i := 0; i < 64_000; i++ {
		if s.Pick() {
			byPhase[i%period]++
		}
	}
	for p, n := range byPhase {
		if n == 0 {
			t.Errorf("phase %d of %d never sampled: %v", p, period, byPhase)
		}
	}
}
