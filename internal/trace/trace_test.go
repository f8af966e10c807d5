package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestBlockKeyRoundTrip(t *testing.T) {
	f := func(file, block uint32) bool {
		k := BlockKey(file, block)
		return uint32(k>>32) == file && uint32(k) == block
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockKeyOrderingWithinFile(t *testing.T) {
	if BlockKey(1, 5) >= BlockKey(1, 6) {
		t.Fatal("keys not ordered by block within file")
	}
	if BlockKey(1, 0xffffffff) >= BlockKey(2, 0) {
		t.Fatal("keys not ordered by file")
	}
}

func TestOpValidate(t *testing.T) {
	good := Op{Kind: Read, Count: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Op{Kind: Write, Count: 0}).Validate(); err == nil {
		t.Fatal("zero count accepted")
	}
	if err := (Op{Kind: Kind(7), Count: 1}).Validate(); err == nil {
		t.Fatal("bad kind accepted")
	}
	if err := (Op{Kind: Read, Block: 0xffffffff, Count: 2}).Validate(); err == nil {
		t.Fatal("overflowing range accepted")
	}
}

func TestOpAccessors(t *testing.T) {
	op := Op{Host: 1, Thread: 2, Kind: Write, File: 3, Block: 4, Count: 5}
	if got := op.String(); got != "h1 t2 W f3 b4 n5" {
		t.Fatalf("String() = %q", got)
	}
	if Read.String() != "R" || Write.String() != "W" || Kind(9).String() != "kind(9)" {
		t.Fatal("kind strings wrong")
	}
}

func sampleOps() []Op {
	return []Op{
		{Host: 0, Thread: 0, Kind: Read, File: 1, Block: 0, Count: 8},
		{Host: 0, Thread: 1, Kind: Write, File: 1, Block: 8, Count: 4},
		{Host: 1, Thread: 0, Kind: Read, File: 2, Block: 100, Count: 1},
		{Host: 65535, Thread: 65535, Kind: Write, File: 0xffffffff, Block: 0xfffffff0, Count: 15},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ops := sampleOps()
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(ops)) {
		t.Fatalf("count = %d", w.Count())
	}

	r, err := NewBinaryReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ops {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("op %d: early EOF (err %v)", i, r.Err())
		}
		if got != want {
			t.Fatalf("op %d: got %v, want %v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("extra op after end")
	}
	if r.Err() != nil {
		t.Fatalf("clean EOF reported error: %v", r.Err())
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := NewBinaryReader(strings.NewReader("not a trace file")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewBinaryWriter(&buf)
	w.Write(Op{Kind: Read, Count: 1})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-3] // chop the last record
	r, err := NewBinaryReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record decoded")
	}
	if r.Err() == nil {
		t.Fatal("truncation not reported")
	}
}

func TestBinaryRejectsInvalidOp(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewBinaryWriter(&buf)
	if err := w.Write(Op{Kind: Read, Count: 0}); err == nil {
		t.Fatal("invalid op written")
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	ops := sampleOps()
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(ops)) {
		t.Fatalf("count = %d", w.Count())
	}
	r := NewTextReader(&buf)
	for i, want := range ops {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("op %d: early EOF (%v)", i, r.Err())
		}
		if got != want {
			t.Fatalf("op %d: got %v, want %v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("extra op")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	input := "# a comment\n\n0 0 R 1 2 3\n   \n# another\n0 1 W 4 5 6\n"
	r := NewTextReader(strings.NewReader(input))
	op1, ok := r.Next()
	if !ok || op1.File != 1 {
		t.Fatalf("first op %v ok=%v", op1, ok)
	}
	op2, ok := r.Next()
	if !ok || op2.Kind != Write {
		t.Fatalf("second op %v ok=%v", op2, ok)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("phantom third op")
	}
}

func TestTextMalformed(t *testing.T) {
	cases := []string{
		"0 0 R 1 2",       // too few fields
		"0 0 X 1 2 3",     // bad kind
		"0 0 R 1 2 0",     // zero count
		"70000 0 R 1 2 3", // host overflow
		"0 0 R abc 2 3",   // non-numeric
		"0 0 R 1 2 3 4 5", // too many fields
	}
	for _, c := range cases {
		r := NewTextReader(strings.NewReader(c))
		if _, ok := r.Next(); ok {
			t.Errorf("malformed line %q decoded", c)
		}
		if r.Err() == nil {
			t.Errorf("malformed line %q: no error", c)
		}
	}
}

func TestBinaryPropertyRoundTrip(t *testing.T) {
	f := func(host, thread uint16, kindRaw bool, file, block uint32, countRaw uint16) bool {
		kind := Read
		if kindRaw {
			kind = Write
		}
		count := uint32(countRaw) + 1
		if uint64(block)+uint64(count) > 1<<32 {
			block = 0
		}
		op := Op{Host: host, Thread: thread, Kind: kind, File: file, Block: block, Count: count}
		var buf bytes.Buffer
		w, err := NewBinaryWriter(&buf)
		if err != nil {
			return false
		}
		if err := w.Write(op); err != nil {
			return false
		}
		w.Flush()
		r, err := NewBinaryReader(&buf)
		if err != nil {
			return false
		}
		got, ok := r.Next()
		return ok && got == op
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceSourceAndCollect(t *testing.T) {
	src := NewSliceSource(sampleOps())
	st := Collect(src)
	if st.Ops != 4 || st.ReadOps != 2 || st.WriteOps != 2 {
		t.Fatalf("op counts wrong: %+v", st)
	}
	if st.Blocks != 8+4+1+15 {
		t.Fatalf("blocks = %d", st.Blocks)
	}
	if st.WriteBlocks != 4+15 {
		t.Fatalf("write blocks = %d", st.WriteBlocks)
	}
	if st.Hosts != 3 || st.Files != 3 {
		t.Fatalf("hosts=%d files=%d", st.Hosts, st.Files)
	}
	// Reset works.
	src.Reset()
	if _, ok := src.Next(); !ok {
		t.Fatal("reset source empty")
	}
}

// TestReadersStopAfterError: a binary record that decodes to an invalid
// op is an error, and once either reader has failed it stays failed.
func TestReadersStopAfterError(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewBinaryWriter(&buf)
	w.Write(Op{Kind: Read, Count: 1})
	w.Write(Op{Kind: Read, Count: 1})
	w.Flush()
	data := buf.Bytes()
	copy(data[8+13:8+17], []byte{0, 0, 0, 0}) // first record's count := 0
	r, err := NewBinaryReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := r.Next(); ok || r.Err() == nil {
			t.Fatalf("call %d: zero-count record decoded (err %v)", i, r.Err())
		}
	}
	tr := NewTextReader(strings.NewReader("0 0 R 1 2 0\n0 0 R 1 2 3\n"))
	for i := 0; i < 2; i++ {
		if _, ok := tr.Next(); ok || tr.Err() == nil {
			t.Fatalf("call %d: text reader went on past an error (err %v)", i, tr.Err())
		}
	}
}
