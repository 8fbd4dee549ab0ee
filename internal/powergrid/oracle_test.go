package powergrid

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Reference implementations of the text layers as they stood before the
// intern table and the byte-level scanner: one map entry and one heap
// string per node, strings.TrimSpace/strings.Fields per line, and an
// fmt-formatted writer over a sort of the names themselves. The
// differential tests hold the production code to these, result for
// result and error for error. They are test-only references, not
// alternative code paths.

type oracleNetlist struct {
	names []string
	index map[string]int

	Resistors  []Resistor
	Currents   []CurrentSource
	VSources   []VoltageSource
	Capacitors []Capacitor
}

func (nl *oracleNetlist) node(name string) int {
	if name == "0" || strings.EqualFold(name, "gnd") {
		return -1
	}
	if i, ok := nl.index[name]; ok {
		return i
	}
	i := len(nl.names)
	nl.names = append(nl.names, name)
	nl.index[name] = i
	return i
}

func oracleParse(r io.Reader) (*oracleNetlist, error) {
	nl := &oracleNetlist{index: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "*") || strings.HasPrefix(line, ".") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			return nil, fmt.Errorf("powergrid: line %d: expected 4 fields, got %q", lineNo, line)
		}
		val, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("powergrid: line %d: bad value %q: %w", lineNo, f[3], err)
		}
		switch line[0] {
		case 'R', 'r':
			if val <= 0 {
				return nil, fmt.Errorf("powergrid: line %d: non-positive resistance %g", lineNo, val)
			}
			nl.Resistors = append(nl.Resistors, Resistor{A: nl.node(f[1]), B: nl.node(f[2]), Ohms: val})
		case 'I', 'i':
			n := nl.node(f[1])
			if n == -1 {
				n = nl.node(f[2])
				val = -val
			}
			nl.Currents = append(nl.Currents, CurrentSource{Node: n, Amps: val})
		case 'V', 'v':
			n := nl.node(f[1])
			if n == -1 {
				n = nl.node(f[2])
				val = -val
			}
			nl.VSources = append(nl.VSources, VoltageSource{Node: n, Volts: val})
		case 'C', 'c':
			if val < 0 {
				return nil, fmt.Errorf("powergrid: line %d: negative capacitance %g", lineNo, val)
			}
			nl.Capacitors = append(nl.Capacitors, Capacitor{A: nl.node(f[1]), B: nl.node(f[2]), Farads: val})
		default:
			return nil, fmt.Errorf("powergrid: line %d: unsupported element %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nl, nil
}

func oracleWriteSolution(w io.Writer, names []string, v []float64) error {
	if len(names) != len(v) {
		return fmt.Errorf("powergrid: %d names for %d voltages", len(names), len(v))
	}
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return names[idx[a]] < names[idx[b]] })
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, i := range idx {
		if _, err := fmt.Fprintf(bw, "%s  %.12e\n", names[i], v[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
