package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Trace files use a USIMM-like text format, one access per line:
//
//	<gap> R|W <line-index>
//
// where gap is the number of non-memory instructions preceding the access
// and line-index is the 64-byte data line within the program's footprint.
// Lines starting with '#' are comments. This lets users feed real traces
// (e.g. converted from a binary-instrumentation run) to the simulator in
// place of the synthetic generators.

// WriteFile streams n accesses from a generator to w in trace-file format.
func WriteFile(w io.Writer, g Generator, n int) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < n; i++ {
		a := g.Next()
		op := byte('R')
		if a.Write {
			op = 'W'
		}
		if _, err := fmt.Fprintf(bw, "%d %c %d\n", a.Gap, op, a.Line); err != nil {
			return fmt.Errorf("trace: write: %w", err)
		}
	}
	return bw.Flush()
}

// ParseFile reads an entire trace file into memory.
func ParseFile(r io.Reader) ([]Access, error) {
	var out []Access
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		a, err := parseRecord(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		out = append(out, a)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return out, nil
}

func parseRecord(text string) (Access, error) {
	fields := strings.Fields(text)
	if len(fields) != 3 {
		return Access{}, fmt.Errorf("want 3 fields %q, got %d", "<gap> R|W <line>", len(fields))
	}
	gap, err := strconv.ParseUint(fields[0], 10, 32)
	if err != nil {
		return Access{}, fmt.Errorf("bad gap %q: %w", fields[0], err)
	}
	var write bool
	switch fields[1] {
	case "R", "r":
		write = false
	case "W", "w":
		write = true
	default:
		return Access{}, fmt.Errorf("bad op %q (want R or W)", fields[1])
	}
	line, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return Access{}, fmt.Errorf("bad line %q: %w", fields[2], err)
	}
	return Access{Gap: uint32(gap), Write: write, Line: line}, nil
}

// Replay is a Generator that cycles through a recorded trace, looping back
// to the start when exhausted (rate-mode restart semantics).
type Replay struct {
	accesses []Access
	pos      int
	// Loops counts completed passes over the trace.
	Loops int
}

// NewReplay wraps a parsed trace as a Generator.
func NewReplay(accesses []Access) (*Replay, error) {
	if len(accesses) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return &Replay{accesses: accesses}, nil
}

// Len returns the recorded trace length.
func (g *Replay) Len() int { return len(g.accesses) }

// Next implements Generator.
func (g *Replay) Next() Access {
	a := g.accesses[g.pos]
	g.pos++
	if g.pos == len(g.accesses) {
		g.pos = 0
		g.Loops++
	}
	return a
}
