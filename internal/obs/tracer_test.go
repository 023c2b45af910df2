package obs_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"sian/internal/obs"
	"sian/internal/obs/txtrace"
)

// The stack's one tracer is txtrace.Tracer; a registry passed as its
// Options.Metrics receives every stage duration as
// trace_stage_ns{stage="<stage>"}. These tests pin that sink.

// TestTracerPhases checks that each marked stage's duration lands in
// its trace_stage_ns series, that repeated stages fold into one
// series, and that the registry agrees with the trace's own spans.
func TestTracerPhases(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	tt := txtrace.New(txtrace.Options{Metrics: reg})

	var spans []txtrace.Span
	for i := 0; i < 2; i++ {
		tr := tt.Begin("s")
		time.Sleep(time.Millisecond)
		tr.Mark(txtrace.StageCheckValidate)
		tr.Mark(txtrace.StageCheckExtensionSearch)
		tr.Finish(txtrace.OutcomeCommit, 0)
		spans = append(spans, tr.Data().Spans...)
	}

	var validateNS, searchNS int64
	for _, sp := range spans {
		switch sp.Stage {
		case txtrace.StageCheckValidate:
			validateNS += sp.End - sp.Start
		case txtrace.StageCheckExtensionSearch:
			searchNS += sp.End - sp.Start
		default:
			t.Errorf("unexpected span stage %q", sp.Stage)
		}
	}
	if validateNS < 2*int64(time.Millisecond) {
		t.Errorf("check_validate spans sum to %dns, want ≥ 2ms", validateNS)
	}
	for stage, want := range map[txtrace.Stage]int64{
		txtrace.StageCheckValidate:        validateNS,
		txtrace.StageCheckExtensionSearch: searchNS,
	} {
		h := reg.Histogram("trace_stage_ns", obs.L("stage", string(stage)))
		if h.Count() != 2 || h.Sum() != want {
			t.Errorf("trace_stage_ns{stage=%s} count %d sum %d, want 2 and %d", stage, h.Count(), h.Sum(), want)
		}
	}
}

// TestTracerConcurrent finishes traces from many goroutines: every
// stage ends up with one series holding every span, agreeing with
// StageLatencies.
func TestTracerConcurrent(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	tt := txtrace.New(txtrace.Options{Metrics: reg})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr := tt.Begin("s")
				tr.Mark(txtrace.StageCheckValidate)
				tr.Mark(txtrace.StageCheckExtensionSearch)
				tr.Finish(txtrace.OutcomeCommit, 0)
			}
		}()
	}
	wg.Wait()
	sls := tt.StageLatencies()
	if len(sls) != 2 {
		t.Fatalf("StageLatencies = %+v, want 2 stages", sls)
	}
	for _, sl := range sls {
		if n := reg.Histogram("trace_stage_ns", obs.L("stage", string(sl.Stage))).Count(); n != 4000 || sl.Count != 4000 {
			t.Errorf("%s: trace_stage_ns count %d, StageLatencies %d, want 4000", sl.Stage, n, sl.Count)
		}
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(prom.String(), "trace_stage_ns_count{"); n != 2 {
		t.Errorf("%d trace_stage_ns series, want one per stage (2):\n%s", n, prom.String())
	}
}
