package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/flashsim"
)

func TestExtReplacementShape(t *testing.T) {
	rep, err := ExtReplacement(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 2 {
		t.Fatal("want read-latency and hit-rate figures")
	}
	hitFig := rep.Figures[1]
	lru := findSeries(t, hitFig, "lru")
	fifo := findSeries(t, hitFig, "fifo")
	// At the fits-in-flash point, recency-aware LRU should not trail
	// FIFO by more than noise.
	if pointAt(t, lru, 60) < pointAt(t, fifo, 60)-3 {
		t.Fatalf("LRU hit rate (%.1f%%) trails FIFO (%.1f%%)",
			pointAt(t, lru, 60), pointAt(t, fifo, 60))
	}
	// Every policy must produce sane hit rates.
	for _, s := range hitFig.Series {
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 100 {
				t.Fatalf("%s: hit rate %v out of range", s.Name, p.Y)
			}
		}
	}
}

func TestExtWritebackShape(t *testing.T) {
	rep, err := ExtWriteback(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 {
		t.Fatal("table missing")
	}
	tbl := rep.Tables[0]
	for _, want := range []string{"a", "d1", "t2000"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing policy %q:\n%s", want, tbl)
		}
	}
	// Parse is indirect; assert via the figure: async (index 0) write
	// latency stays at RAM speed, and all policies completed.
	fig := rep.Figures[0]
	ws := findSeries(t, fig, "write latency")
	if ws.Points[0].Y > 5 {
		t.Fatalf("async write latency %.1f us too high", ws.Points[0].Y)
	}
	wbs := findSeries(t, fig, "filer writebacks (k)")
	// Delayed writeback coalesces: fewer filer writebacks than async
	// write-through (every write propagates under a).
	if wbs.Points[1].Y >= wbs.Points[0].Y {
		t.Fatalf("delayed writebacks (%.1fk) not below async (%.1fk)",
			wbs.Points[1].Y, wbs.Points[0].Y)
	}
}

func TestExtWearShape(t *testing.T) {
	rep, err := ExtWear(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 {
		t.Fatal("table missing")
	}
	tbl := rep.Tables[0]
	for _, want := range []string{"naive", "lookaside", "unified", "write amplification"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestExtFTLShape(t *testing.T) {
	rep, err := ExtFTL(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 {
		t.Fatal("table missing")
	}
	tbl := rep.Tables[0]
	for _, want := range []string{"fixed (30% wr)", "ftl-backed (30% wr)", "ftl-backed (70% wr)"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	// Each row's WA column is its own run's write amplification: rerun
	// every point and match the printed value, "-" on the fixed device.
	o := quickOpts()
	fs, err := sharedServer(o, 60)
	if err != nil {
		t.Fatal(err)
	}
	var was []float64
	for _, wf := range []float64{0.3, 0.7} {
		for _, ftlBacked := range []bool{false, true} {
			res, err := flashsim.Run(extFTLConfig(o, fs, wf, ftlBacked))
			if err != nil {
				t.Fatal(err)
			}
			name, want := fmt.Sprintf("fixed (%.0f%% wr)", wf*100), "-"
			if ftlBacked {
				name = fmt.Sprintf("ftl-backed (%.0f%% wr)", wf*100)
				want = fmt.Sprintf("%.2f", res.FTLWriteAmplification)
				was = append(was, res.FTLWriteAmplification)
			}
			row := tableRow(t, tbl, name)
			if got := row[len(row)-1]; got != want {
				t.Errorf("%s: WA column %q, want its own run's %q", name, got, want)
			}
		}
	}
	if was[0] <= 1 || was[1] <= 1 || was[0] == was[1] {
		t.Errorf("write amplification %v: want two distinct values above 1", was)
	}
}

// tableRow returns the whitespace-separated fields of the table line that
// starts with name.
func tableRow(t *testing.T, tbl, name string) []string {
	t.Helper()
	for _, line := range strings.Split(tbl, "\n") {
		if strings.HasPrefix(line, name) {
			return strings.Fields(line)
		}
	}
	t.Fatalf("table has no row %q:\n%s", name, tbl)
	return nil
}

func TestValidateExperiment(t *testing.T) {
	rep, err := Validate(quickOpts())
	if err != nil {
		t.Fatalf("validation failed: %v", err)
	}
	if !strings.Contains(rep.Tables[0], "PASS") {
		t.Fatalf("validation did not pass:\n%s", rep.Tables[0])
	}
}

func TestExtRecoveryShape(t *testing.T) {
	rep, err := ExtRecovery(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if !strings.Contains(tbl, "recovery") {
		t.Fatalf("table missing recovery column:\n%s", tbl)
	}
}

func TestExtProtocolShape(t *testing.T) {
	rep, err := ExtProtocol(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	inst := findSeries(t, rep.Figures[0], "instant (paper)")
	proto := findSeries(t, rep.Figures[0], "callback protocol")
	if pointAt(t, proto, 30) <= pointAt(t, inst, 30) {
		t.Fatalf("protocol writes (%.1f) not above instant (%.1f)",
			pointAt(t, proto, 30), pointAt(t, inst, 30))
	}
}
