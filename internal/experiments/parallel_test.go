package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The acceptance contract for the sweep runner: an experiment's Report —
// every figure point, every table byte — is identical whether its grid ran
// on one worker or eight. Fig4 (fig2_fig5.go) and Fig8 (fig6_fig9.go)
// exercise single- and multi-series collectors; ExtRecovery exercises
// cross-point row assembly.
func TestReportsIdenticalAcrossParallelism(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  Runner
	}{
		{"fig4", Fig4},
		{"fig8", Fig8},
		{"ext-recovery", ExtRecovery},
		{"ext-scenario", ExtScenario},
		{"ext-filerfail", ExtFilerFail},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seqOpts := quickOpts()
			seqOpts.Parallel = 1
			parOpts := quickOpts()
			parOpts.Parallel = 8

			seq, err := tc.run(seqOpts)
			if err != nil {
				t.Fatal(err)
			}
			par, err := tc.run(parOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("sequential and parallel reports differ:\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}
}

// Progress output is delivered in declaration order, so even the -v log is
// byte-identical at any parallelism.
func TestProgressIdenticalAcrossParallelism(t *testing.T) {
	var seqLog, parLog bytes.Buffer
	seqOpts := quickOpts()
	seqOpts.Parallel = 1
	seqOpts.Progress = &seqLog
	parOpts := quickOpts()
	parOpts.Parallel = 8
	parOpts.Progress = &parLog

	if _, err := Fig4(seqOpts); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig4(parOpts); err != nil {
		t.Fatal(err)
	}
	if seqLog.Len() == 0 {
		t.Fatal("no progress output")
	}
	if seqLog.String() != parLog.String() {
		t.Errorf("progress logs differ:\nseq:\n%s\npar:\n%s", seqLog.String(), parLog.String())
	}
}

// A failing sweep reports the same point at any parallelism: with two
// invalid points, the error names the grid and the label of the lower-index
// one, exactly as a sequential loop would have stopped on it.
func TestSweepErrorNamesLowestPoint(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		o := quickOpts()
		o.Parallel = parallel
		s := newSweep(o, "errgrid")
		good := baseline(o)
		bad := good
		bad.Hosts = 0
		s.add("good-0", good, nil)
		s.add("bad-1", bad, nil)
		s.add("good-2", good, nil)
		s.add("bad-3", bad, nil)
		err := s.run()
		if err == nil {
			t.Fatalf("parallel=%d: invalid points ran without error", parallel)
		}
		msg := err.Error()
		if !strings.Contains(msg, "grid errgrid point 1 (bad-1)") || strings.Contains(msg, "bad-3") {
			t.Errorf("parallel=%d: error %q does not name the lowest failing point", parallel, msg)
		}
	}
}
