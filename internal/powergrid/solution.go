package powergrid

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Solution file I/O in the IBM power-grid benchmark format: one
// "<nodename> <voltage>" pair per line. The benchmarks ship golden
// .solution files in this format; emitting it lets downstream tooling
// diff solver output directly.

// WriteSolution writes node voltages sorted by node name (the benchmark
// convention); nodes sharing a name keep their input order. names[i]
// labels voltage v[i]. Each line is "<name>  <v>" with v in %.12e form.
func WriteSolution(w io.Writer, names []string, v []float64) error {
	if len(names) != len(v) {
		return fmt.Errorf("powergrid: %d names for %d voltages", len(names), len(v))
	}
	// Sort on the first eight name bytes, read as a big-endian integer
	// (zero-padded, which keeps the integer order the string order), and
	// compare whole names only when those tie.
	order := make([]nameKey, len(names))
	for i, name := range names {
		var p [8]byte
		copy(p[:], name)
		order[i] = nameKey{prefix: binary.BigEndian.Uint64(p[:]), idx: i}
	}
	slices.SortFunc(order, func(a, b nameKey) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		if c := strings.Compare(names[a.idx], names[b.idx]); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// strconv's 'e' form is byte-identical to fmt's %.12e for every
	// float64, ±Inf and NaN included.
	const flushAt = 60 << 10
	buf := make([]byte, 0, 64<<10)
	for _, k := range order {
		buf = append(buf, names[k.idx]...)
		buf = append(buf, "  "...)
		buf = strconv.AppendFloat(buf, v[k.idx], 'e', 12, 64)
		buf = append(buf, '\n')
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// nameKey is one WriteSolution sort entry: a name's leading bytes and
// its input index.
type nameKey struct {
	prefix uint64
	idx    int
}

// ReadSolution parses a solution file into a name → voltage map.
func ReadSolution(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	out := make(map[string]float64)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "*") || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("powergrid: solution line %d: want `<node> <voltage>`, got %q", lineNo, line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("powergrid: solution line %d: bad voltage %q", lineNo, f[1])
		}
		if _, dup := out[f[0]]; dup {
			return nil, fmt.Errorf("powergrid: solution line %d: duplicate node %q", lineNo, f[0])
		}
		out[f[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CompareSolutions returns the maximum absolute voltage difference over
// the union of the two solutions; nodes missing from either side count as
// an error.
func CompareSolutions(a, b map[string]float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("powergrid: solutions have %d vs %d nodes", len(a), len(b))
	}
	var maxDiff float64
	//pglint:ordered-irrelevant max over |Δv| is commutative; only the node named in a missing-node error varies with order
	for name, va := range a {
		vb, ok := b[name]
		if !ok {
			return 0, fmt.Errorf("powergrid: node %q missing from second solution", name)
		}
		d := va - vb
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff, nil
}
