// Package trace defines the I/O trace record the simulator replays and
// a text interchange format compatible with block-trace tooling: one
// request per line, "arrival_ns,op,lpn,pages". The paper replays SNIA,
// UMass and NERSC traces; this package lets externally converted traces
// drive the same simulator the synthetic workloads drive.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// Op is the request direction.
type Op uint8

const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Write:
		return "W"
	}
	return "?"
}

// ParseOp converts "R"/"W" (case-insensitive) to an Op.
func ParseOp(s string) (Op, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "R", "READ", "0":
		return Read, nil
	case "W", "WRITE", "1":
		return Write, nil
	}
	return Read, fmt.Errorf("trace: unknown op %q", s)
}

// Request is one trace record.
type Request struct {
	Arrival simx.Time // submission time
	Op      Op
	LPN     int64       // first logical page
	Pages   units.Pages // page count (>= 1)
}

// Validate reports whether the request is well-formed.
func (r Request) Validate() error {
	switch {
	case r.Arrival < 0:
		return fmt.Errorf("trace: negative arrival %v", r.Arrival)
	case r.Op != Read && r.Op != Write:
		return fmt.Errorf("trace: unknown op %d", r.Op)
	case r.LPN < 0:
		return fmt.Errorf("trace: negative LPN %d", r.LPN)
	case r.Pages < 1:
		return fmt.Errorf("trace: pages %d < 1", r.Pages)
	}
	return nil
}

// Encode serialises requests, one per line.
func Encode(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%d,%s,%d,%d\n", int64(r.Arrival), r.Op, r.LPN, r.Pages); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode parses a trace written by Encode (or hand-converted from another
// format). Blank lines and lines starting with '#' are skipped.
func Decode(r io.Reader) ([]Request, error) {
	var out []Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		arrival, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: arrival: %v", lineNo, err)
		}
		op, err := ParseOp(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
		}
		lpn, err := strconv.ParseInt(strings.TrimSpace(fields[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: lpn: %v", lineNo, err)
		}
		pages, err := strconv.Atoi(strings.TrimSpace(fields[3]))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: pages: %v", lineNo, err)
		}
		req := Request{Arrival: simx.Time(arrival), Op: op, LPN: lpn, Pages: units.Pages(pages)}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
		}
		out = append(out, req)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats summarises a trace.
type Stats struct {
	Requests   int
	Reads      int
	Writes     int
	Pages      units.Pages
	DurationNS simx.Time
}

// ReadRatio reports the fraction of read requests.
func (s Stats) ReadRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Requests)
}

// OfferedIOPS reports the trace's offered request rate.
func (s Stats) OfferedIOPS() float64 {
	if s.DurationNS <= 0 {
		return 0
	}
	return float64(s.Requests) / (float64(s.DurationNS) / float64(simx.Second))
}

// Summarize computes trace statistics.
func Summarize(reqs []Request) Stats {
	var s Stats
	s.Requests = len(reqs)
	for _, r := range reqs {
		if r.Op == Read {
			s.Reads++
		} else {
			s.Writes++
		}
		s.Pages += r.Pages
		if r.Arrival > s.DurationNS {
			s.DurationNS = r.Arrival
		}
	}
	return s
}
