package powergrid

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse exercises the netlist parser with arbitrary input: it must
// never panic, must agree with the reference parser in oracle_test.go
// (elements, node indices, names, error text), and anything it accepts
// must survive a write/parse round trip with identical element counts.
func FuzzParse(f *testing.F) {
	for _, src := range netlistFixtures {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		assertParseMatchesOracle(t, src)
		nl, err := Parse(strings.NewReader(src))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := nl.Write(&buf); err != nil {
			t.Fatalf("Write failed on accepted netlist: %v", err)
		}
		nl2, err := Parse(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\ninput: %q\nwritten: %q", err, src, buf.String())
		}
		if len(nl2.Resistors) != len(nl.Resistors) ||
			len(nl2.Currents) != len(nl.Currents) ||
			len(nl2.VSources) != len(nl.VSources) ||
			len(nl2.Capacitors) != len(nl.Capacitors) {
			t.Fatalf("element counts changed in round trip for %q", src)
		}
	})
}

// FuzzReadSolution: the solution parser must never panic and must reject
// duplicates consistently.
func FuzzReadSolution(f *testing.F) {
	f.Add("n1 1.5\nn2 1.6\n")
	f.Add("* comment\nn1 1.5\n")
	f.Add("n1 xx\n")
	f.Add("n1 1 2\n")
	f.Fuzz(func(t *testing.T, src string) {
		sol, err := ReadSolution(strings.NewReader(src))
		if err != nil {
			return
		}
		for name := range sol {
			if strings.ContainsAny(name, " \t\n") {
				t.Fatalf("accepted a node name with whitespace: %q", name)
			}
		}
	})
}
