package trace_test

import (
	"bytes"
	"testing"

	"sassi/internal/trace"
)

// FuzzTraceRead: a trace file is a trust boundary, so Read returns a trace
// or an error for any bytes and never panics, whatever counts the header
// and the events claim.
func FuzzTraceRead(f *testing.F) {
	var buf bytes.Buffer
	tr := &trace.MemTracer{Events: []trace.Event{
		{PC: 3, SM: 1, Warp: 2, Store: true, Lines: []uint64{0x1000, 0x1020}},
		{PC: 7, Lines: []uint64{0x2000}},
	}}
	if err := tr.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NOTATRACE16BYTE!"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := trace.Read(bytes.NewReader(data))
		if err == nil && back == nil {
			t.Fatal("no trace and no error")
		}
	})
}
