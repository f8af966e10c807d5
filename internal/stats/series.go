package stats

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TimeSeries is a time-resolved telemetry table: a shared time column plus
// a fixed set of named value columns, one row per sample. It is the
// exportable product of the scenario engine's telemetry probe — per-interval
// hit rates, latencies, queue depths, dirty-block counts — and renders as
// CSV or NDJSON.
//
// Storage is a single flat float64 slice (row-major), so appending a row
// within the existing capacity allocates nothing; the sampling hot path
// stays allocation-free once the backing arrays reach their high-water
// mark.
type TimeSeries struct {
	name    string
	columns []string
	times   []float64
	values  []float64 // len(times) * len(columns), row-major
}

// NewTimeSeries returns an empty series with the given value columns (the
// time column is implicit and always first in exports).
func NewTimeSeries(name string, columns ...string) *TimeSeries {
	if len(columns) == 0 {
		panic("stats: time series needs at least one column")
	}
	return &TimeSeries{name: name, columns: append([]string(nil), columns...)}
}

// NumColumns returns the number of value columns.
func (ts *TimeSeries) NumColumns() int { return len(ts.columns) }

// Len returns the number of rows.
func (ts *TimeSeries) Len() int { return len(ts.times) }

// Append adds one sample row. row must have exactly NumColumns values; the
// contents are copied, so callers may reuse the slice.
func (ts *TimeSeries) Append(t float64, row []float64) {
	if len(row) != len(ts.columns) {
		panic(fmt.Sprintf("stats: row has %d values, series has %d columns", len(row), len(ts.columns)))
	}
	ts.times = append(ts.times, t)
	ts.values = append(ts.values, row...)
}

// Time returns row i's timestamp.
func (ts *TimeSeries) Time(i int) float64 { return ts.times[i] }

// Row returns row i's values as a read-only view into the series storage.
func (ts *TimeSeries) Row(i int) []float64 {
	n := len(ts.columns)
	return ts.values[i*n : (i+1)*n]
}

// ColumnIndex returns the index of the named column, or -1.
func (ts *TimeSeries) ColumnIndex(name string) int {
	for i, c := range ts.columns {
		if c == name {
			return i
		}
	}
	return -1
}

// appendFloat renders v with the shortest round-trip representation, the
// deterministic format shared by both exporters.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteCSV renders the series as CSV: a comment line with the name, a
// header (time_s first), then one row per sample.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	var b []byte
	b = append(b, "# "...)
	b = append(b, ts.name...)
	b = append(b, "\ntime_s"...)
	for _, c := range ts.columns {
		b = append(b, ',')
		b = append(b, c...)
	}
	b = append(b, '\n')
	for i := range ts.times {
		b = appendFloat(b, ts.times[i])
		for _, v := range ts.Row(i) {
			b = append(b, ',')
			b = appendFloat(b, v)
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// CSV renders the series as a CSV string.
func (ts *TimeSeries) CSV() string {
	var sb strings.Builder
	ts.WriteCSV(&sb) // strings.Builder never errors
	return sb.String()
}

// AppendRowNDJSON appends one sample row as a JSON object — "t" first,
// then the columns in declaration order, every float in the shortest
// round-trip representation — and returns the extended buffer. It is the
// single row encoder behind both the batch NDJSON export and the daemon's
// live telemetry stream, so the two renderings of the same run are
// byte-identical. No trailing newline is appended; row must have exactly
// len(columns) values.
func AppendRowNDJSON(dst []byte, columns []string, t float64, row []float64) []byte {
	if len(row) != len(columns) {
		panic(fmt.Sprintf("stats: row has %d values, %d columns", len(row), len(columns)))
	}
	dst = append(dst, `{"t":`...)
	dst = appendFloat(dst, t)
	for j, v := range row {
		dst = append(dst, ',', '"')
		dst = append(dst, columns[j]...)
		dst = append(dst, '"', ':')
		dst = appendFloat(dst, v)
	}
	return append(dst, '}')
}

// WriteNDJSON renders the series as newline-delimited JSON, one object per
// sample with "t" first and then the columns in declaration order.
func (ts *TimeSeries) WriteNDJSON(w io.Writer) error {
	var b []byte
	for i := range ts.times {
		b = AppendRowNDJSON(b, ts.columns, ts.times[i], ts.Row(i))
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}
