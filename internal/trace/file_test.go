package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteParseRoundTrip(t *testing.T) {
	g := NewRandom(1<<16, NewRates(20, 10), 3)
	var buf bytes.Buffer
	if err := WriteFile(&buf, g, 1000); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("parsed %d records, want 1000", len(got))
	}
	// Determinism: regenerate and compare.
	g2 := NewRandom(1<<16, NewRates(20, 10), 3)
	for i, a := range got {
		if want := g2.Next(); a != want {
			t.Fatalf("record %d = %+v, want %+v", i, a, want)
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	in := `# a trace
12 R 100

3 W 200
# trailing comment
0 r 5
7 w 6
`
	got, err := ParseFile(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Access{
		{Gap: 12, Write: false, Line: 100},
		{Gap: 3, Write: true, Line: 200},
		{Gap: 0, Write: false, Line: 5},
		{Gap: 7, Write: true, Line: 6},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                 // empty trace
		"1 R",              // missing field
		"x R 5",            // bad gap
		"1 Q 5",            // bad op
		"1 R five",         // bad line
		"999999999999 R 1", // gap overflows uint32
	}
	for _, in := range cases {
		if _, err := ParseFile(strings.NewReader(in)); err == nil {
			t.Errorf("ParseFile(%q) succeeded, want error", in)
		}
	}
}

func TestReplayLoops(t *testing.T) {
	acc := []Access{
		{Gap: 1, Write: false, Line: 10},
		{Gap: 2, Write: true, Line: 20},
		{Gap: 3, Write: false, Line: 30},
	}
	g, err := NewReplay(acc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("len=%d", g.Len())
	}
	for round := 0; round < 3; round++ {
		for i := range acc {
			if got := g.Next(); got != acc[i] {
				t.Fatalf("round %d record %d = %+v", round, i, got)
			}
		}
	}
	if g.Loops != 3 {
		t.Fatalf("loops = %d, want 3", g.Loops)
	}
}

func TestNewReplayEmpty(t *testing.T) {
	if _, err := NewReplay(nil); err == nil {
		t.Fatal("empty replay must fail")
	}
}
