package powergrid

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// Differential suite for the text layers: Parse and WriteSolution must
// match the pre-intern-table references in oracle_test.go bit for bit —
// elements, node indices, names, error text and solution bytes.

// netlistFixtures is every netlist text the package's tests feed the
// parser, plus scanner edge cases: separators, ground spellings, source
// sign flips, duplicate names and each error path.
var netlistFixtures = []string{
	"",
	"* comment only\n",
	"R1 a b 1.0\nI1 a 0 0.001\nV1 b 0 1.8\n.op\n.end\n",
	"* comment\nR1 a b 2.0\nI1 a 0 0.001\nV1 b 0 1.8\n.op\n.end\n",
	"V1 a 0 1.0\nV2 a 0 2.0\nR1 a b 1\n",
	"R1 a b 1\nC1 a 0 1e-12\nV1 b 0 1.8\n",
	"* interleaved elements\nR1 a b 2.0\nI1 b 0 0.001\nR2 b c 3.0\nV1 c 0 1.8\nI2 a 0 0.0005\nR3 a c 5.0\nC1 a 0 1e-12\n.end\n",
	"C1 x 0 1e-12\nR2 x y 3\n",
	"r1 0 0 1\niX 0 n 2\nv2 0 q 3\n",
	"R1 GND Gnd 1\nR2 gNd n 2\nI1 0 GND 3\nR3 00 0.0 4\n",
	"R1 a b 1 trailing fields are ignored\n",
	"  \t R1   a\tb  1  \n\n   \n* x\n  .end\n",
	"R1 a b 1\r\nR2 b c 2\r\n",
	"R1 n1 n2 1\nR2 n2 n1 1\nR3 n1 n1 1\nI1 n2 0 1e-3\n",
	"R1 a b +1.5e+02\nR2 b c 0x1p-2\nR3 c d 1_000\nR4 d e Inf\nC1 e 0 NaN\n",
	"R1 a b\n",
	"R1 a\n",
	"R1 a b -5\n",
	"R1 a b 0\n",
	"C1 a 0 -1e-12\n",
	"X1 a b 1.0\n",
	"X unknown element 5\n",
	"R1 a b not_a_num\n",
	"R1 a b 1e999\n",
	"R1 a b 1\nR2 b c 2\nQ3 c d 3 extra\n",
	"R1\u00a0a\u2028b\u30001\n",
	"R1\va\fb 1\n",
	"R1 a b\xa01\n",
	"R1 a\u200bb c 1\n",
	"\u0085R1 a b 1\u1680\n",
	"R1 a b 1 \xc2\n",
	"R1 \xff\xfe b 1\nR2 b \xff\xfe 2\n",
	"\u2029\n",
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertParseMatchesOracle parses src both ways and requires the same
// error text, or the same elements, node indices and names.
func assertParseMatchesOracle(t testing.TB, src string) {
	t.Helper()
	want, werr := oracleParse(strings.NewReader(src))
	got, gerr := Parse(strings.NewReader(src))
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("error mismatch on %q:\n got  %v\n want %v", src, gerr, werr)
		}
		if errors.Unwrap(werr) != nil && !errors.Is(gerr, errors.Unwrap(errors.Unwrap(werr))) {
			t.Fatalf("error chain differs on %q: %v", src, gerr)
		}
		return
	}
	if got.NumNodes() != len(want.names) {
		t.Fatalf("%q: %d nodes, want %d", src, got.NumNodes(), len(want.names))
	}
	for i, name := range want.names {
		if got.NodeName(i) != name {
			t.Fatalf("%q: node %d named %q, want %q", src, i, got.NodeName(i), name)
		}
		if id := got.Node(name); id != i {
			t.Fatalf("%q: Node(%q) = %d, want %d", src, name, id, i)
		}
	}
	if len(got.Resistors) != len(want.Resistors) || len(got.Currents) != len(want.Currents) ||
		len(got.VSources) != len(want.VSources) || len(got.Capacitors) != len(want.Capacitors) {
		t.Fatalf("%q: element counts %d/%d/%d/%d, want %d/%d/%d/%d", src,
			len(got.Resistors), len(got.Currents), len(got.VSources), len(got.Capacitors),
			len(want.Resistors), len(want.Currents), len(want.VSources), len(want.Capacitors))
	}
	for i, w := range want.Resistors {
		if g := got.Resistors[i]; g.A != w.A || g.B != w.B || !sameBits(g.Ohms, w.Ohms) {
			t.Fatalf("%q: resistor %d = %+v, want %+v", src, i, g, w)
		}
	}
	for i, w := range want.Currents {
		if g := got.Currents[i]; g.Node != w.Node || !sameBits(g.Amps, w.Amps) {
			t.Fatalf("%q: current %d = %+v, want %+v", src, i, g, w)
		}
	}
	for i, w := range want.VSources {
		if g := got.VSources[i]; g.Node != w.Node || !sameBits(g.Volts, w.Volts) {
			t.Fatalf("%q: source %d = %+v, want %+v", src, i, g, w)
		}
	}
	for i, w := range want.Capacitors {
		if g := got.Capacitors[i]; g.A != w.A || g.B != w.B || !sameBits(g.Farads, w.Farads) {
			t.Fatalf("%q: capacitor %d = %+v, want %+v", src, i, g, w)
		}
	}
}

// thupgNetlist renders a generated grid of the thupg family (five
// layers, sparse pads) as netlist text.
func thupgNetlist(t testing.TB, side int, seed uint64) []byte {
	t.Helper()
	g, err := Generate(Spec{Name: "thupg", NX: side, NY: side, Layers: 5, PadPitch: 48, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.ToNetlist().Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseMatchesOracle(t *testing.T) {
	for _, src := range netlistFixtures {
		assertParseMatchesOracle(t, src)
	}
	side := 105 // thupg1
	if testing.Short() {
		side = 40
	}
	src := thupgNetlist(t, side, 1007)
	assertParseMatchesOracle(t, string(src))

	// The assembled system is the one the reference elements give.
	want, err := oracleParse(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	ref := &Netlist{names: want.names, Resistors: want.Resistors, Currents: want.Currents, VSources: want.VSources}
	wantSys, err := ref.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	nl, err := Parse(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	gotSys, err := nl.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSystem(t, "thupg netlist", wantSys, gotSys)
}

// TestFieldSplitMatchesStrings pins the scanner's tokenizer to
// strings.Fields and strings.TrimSpace (unicode.IsSpace) on lines mixing
// ASCII, multi-byte and invalid UTF-8 separators.
func TestFieldSplitMatchesStrings(t *testing.T) {
	lines := []string{
		"R1 a b 1",
		"R1\u00a0a\u00a0b\u00a01",   // NBSP
		"R1 a\u2028b\u2029 1",       // line and paragraph separators
		"R1\va\fb\t1",               // vertical tab, form feed
		"R1 a b 1\r",                // CR left by a CRLF split
		"\u0085 R1 a b 1 \u3000",    // NEL, ideographic space
		"R1 a\u200bb 1",             // zero-width space is not a space
		"R1 a b\xa01",               // lone 0xA0 byte is not NBSP
		"R1 \xc2 b 1 \xc2",          // truncated sequences
		"\xe2\x80\xa8\xe2\x80",      // U+2028 then a truncated one
		" \u1680\u2000\u200a\u205f", // spaces only
		"",
	}
	for _, line := range lines {
		b := []byte(line)
		var got []string
		start, end := field(b, 0)
		for s, e := start, end; s < len(b); s, e = field(b, e) {
			got = append(got, line[s:e])
		}
		want := strings.Fields(line)
		if !slices.Equal(got, want) {
			t.Errorf("%q: fields %q, want %q", line, got, want)
		}
		if start < len(b) {
			if tr := trimmed(b, start, end); tr != strings.TrimSpace(line) {
				t.Errorf("%q: trimmed to %q, want %q", line, tr, strings.TrimSpace(line))
			}
		} else if strings.TrimSpace(line) != "" {
			t.Errorf("%q: no field found in a non-blank line", line)
		}
	}
}

func TestWriteSolutionMatchesOracle(t *testing.T) {
	names := []string{
		"n1", "n1\x00", "n10", "n1_0_0", "n1_0_00", "", "a", "aaaaaaaa", "aaaaaaaab",
		"aaaaaaaaa", "zz\xff", "zz\xc3\xa9", "n0_12345678", "n0_12345677", "_vdd", "N1",
	}
	vals := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
		5e-324, 2.2250738585072014e-308 / 3, -1e-310, // subnormals
		1e-300, -1.7976931348623157e308, 1e100, 1.8, 1.7999999999995, -0.5, 123456789.123, 1e-7,
	}
	assertWriteMatchesOracle(t, names, vals)

	// A thupg grid's node names with generated voltages.
	g, err := Generate(Spec{Name: "thupg", NX: 40, NY: 40, Layers: 5, PadPitch: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	names = make([]string, g.N())
	vals = make([]float64, g.N())
	for i := range names {
		names[i] = g.NodeName(i)
		vals[i] = 1.8 - 1e-3*float64(i%977)/7
	}
	assertWriteMatchesOracle(t, names, vals)
}

func assertWriteMatchesOracle(t *testing.T, names []string, v []float64) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteSolution(&got, names, v); err != nil {
		t.Fatal(err)
	}
	if err := oracleWriteSolution(&want, names, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("solution text differs:\n got:\n%s\n want:\n%s", got.Bytes(), want.Bytes())
	}
}

// TestWriteSolutionDuplicateNamesKeepInputOrder: nodes that share a name
// are written in input order — enough of them that the sort partitions
// rather than falling back to its (stable) insertion sort.
func TestWriteSolutionDuplicateNamesKeepInputOrder(t *testing.T) {
	var sb strings.Builder
	if err := WriteSolution(&sb, []string{"b", "a", "b", "a", "a"}, []float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	want := "a  2.000000000000e+00\na  4.000000000000e+00\na  5.000000000000e+00\n" +
		"b  1.000000000000e+00\nb  3.000000000000e+00\n"
	if sb.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", sb.String(), want)
	}

	const n = 500
	names := make([]string, n)
	v := make([]float64, n)
	for i := range names {
		names[i] = []string{"node_b", "node_a", "node_c"}[(i*7)%3]
		v[i] = float64(i)
	}
	sb.Reset()
	if err := WriteSolution(&sb, names, v); err != nil {
		t.Fatal(err)
	}
	last := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		var name string
		var x float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &x); err != nil {
			t.Fatal(err)
		}
		if prev, ok := last[name]; ok && x <= prev {
			t.Fatalf("%s: index %g written after %g", name, x, prev)
		}
		last[name] = x
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestWriteSolutionReportsWriteError(t *testing.T) {
	boom := errors.New("boom")
	if err := WriteSolution(failWriter{boom}, []string{"a"}, []float64{1}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the writer's error", err)
	}
}

// TestTextLayerAllocations bounds the allocations of a parse and a
// write: they must grow with the logarithm of the input (table and
// slice doublings), not with its node count.
func TestTextLayerAllocations(t *testing.T) {
	src := thupgNetlist(t, 72, 5) // ~10k nodes
	nl, err := Parse(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n := nl.NumNodes(); n < 9000 {
		t.Fatalf("fixture has %d nodes, want ~10k", n)
	}
	parse := testing.AllocsPerRun(5, func() {
		if _, err := Parse(bytes.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	})
	if parse > 64 {
		t.Errorf("Parse of %d nodes: %.0f allocations, want <= 64", nl.NumNodes(), parse)
	}
	names := make([]string, nl.NumNodes())
	v := make([]float64, len(names))
	for i := range names {
		names[i] = nl.NodeName(i)
		v[i] = float64(i) / 3
	}
	write := testing.AllocsPerRun(5, func() {
		if err := WriteSolution(discard{}, names, v); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d nodes: Parse %.0f allocations, WriteSolution %.0f", len(names), parse, write)
	if write > 8 {
		t.Errorf("WriteSolution of %d nodes: %.0f allocations, want <= 8", len(names), write)
	}
}

// discard is io.Discard without the interface conversion's allocation
// profile changing between Go releases.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
