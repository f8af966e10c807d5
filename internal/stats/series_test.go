package stats

import (
	"strings"
	"testing"
)

func TestTimeSeriesAppendAndAccess(t *testing.T) {
	ts := NewTimeSeries("probe", "a", "b")
	ts.Append(0.5, []float64{1, 2})
	ts.Append(1.0, []float64{3, 4})
	if ts.Len() != 2 || ts.NumColumns() != 2 {
		t.Fatalf("len=%d cols=%d", ts.Len(), ts.NumColumns())
	}
	if ts.Time(1) != 1.0 || ts.Row(1)[0] != 3 || ts.Row(1)[1] != 4 {
		t.Fatalf("row 1 = t=%v %v", ts.Time(1), ts.Row(1))
	}
	if ts.ColumnIndex("b") != 1 || ts.ColumnIndex("zz") != -1 {
		t.Fatal("column index lookup broken")
	}
}

func TestTimeSeriesAppendWrongWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong row width")
		}
	}()
	ts := NewTimeSeries("probe", "a", "b")
	ts.Append(0, []float64{1})
}

func TestTimeSeriesCSVAndNDJSON(t *testing.T) {
	ts := NewTimeSeries("probe", "hit", "lat")
	ts.Append(0.25, []float64{0.5, 120})
	ts.Append(0.5, []float64{0.75, 80.5})

	csv := ts.CSV()
	wantCSV := "# probe\ntime_s,hit,lat\n0.25,0.5,120\n0.5,0.75,80.5\n"
	if csv != wantCSV {
		t.Errorf("CSV:\ngot  %q\nwant %q", csv, wantCSV)
	}

	var sb strings.Builder
	if err := ts.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	nd := sb.String()
	wantND := `{"t":0.25,"hit":0.5,"lat":120}` + "\n" + `{"t":0.5,"hit":0.75,"lat":80.5}` + "\n"
	if nd != wantND {
		t.Errorf("NDJSON:\ngot  %q\nwant %q", nd, wantND)
	}
	if strings.Count(nd, "\n") != ts.Len() {
		t.Error("NDJSON line count != rows")
	}
}

// TestAppendRowNDJSON locks the single-row encoder the daemon streams
// with: each emitted object must be byte-identical to the corresponding
// WriteNDJSON line.
func TestAppendRowNDJSON(t *testing.T) {
	ts := NewTimeSeries("probe", "hit", "lat")
	ts.Append(0.25, []float64{0.5, 120})
	ts.Append(0.5, []float64{0.75, 80.5})
	var sb strings.Builder
	if err := ts.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	for i := 0; i < ts.Len(); i++ {
		got := string(AppendRowNDJSON(nil, []string{"hit", "lat"}, ts.Time(i), ts.Row(i)))
		if got != want[i] {
			t.Errorf("row %d: got %q, want %q", i, got, want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong row width")
		}
	}()
	AppendRowNDJSON(nil, []string{"a", "b"}, 0, []float64{1})
}
