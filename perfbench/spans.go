package main

import (
	"strings"
	"time"
)

// span is one timed call the benchmark made into the simulator. Spans
// are recorded from outside: Array.Run is a single opaque span.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer's origin
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index into the span list, -1 for a root
	Workload string `json:"workload"`
	Array    string `json:"array"`
	Rep      int    `json:"rep"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end do nothing.
type tracer struct {
	origin   time.Time
	workload string
	rep      int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

// begin opens a span under parent (-1 for none) and returns its id.
// Spans under an "array:<name>" span carry that array's name.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	arr := ""
	if parent >= 0 {
		arr = t.spans[parent].Array
	} else if n, ok := strings.CutPrefix(name, "array:"); ok {
		arr = n
	}
	t.spans = append(t.spans, span{
		Name: name, StartNS: int64(time.Since(t.origin)), Parent: parent,
		Workload: t.workload, Array: arr, Rep: t.rep,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.origin))
}
