package powergrid

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"

	"powerrchol/internal/graph"
)

// Netlist is the IBM power-grid-benchmark SPICE subset: resistors,
// DC current loads and ideal voltage sources, all referenced to the
// ground node "0".
type Netlist struct {
	// names[i] is node i's name. Names interned by a scan are substrings
	// of one string built from the table's arena when the scan ends.
	names []string
	tab   nameTable

	Resistors  []Resistor
	Currents   []CurrentSource
	VSources   []VoltageSource
	Capacitors []Capacitor
}

// Capacitor connects a node to ground (or two nodes); it is ignored in DC
// analysis and consumed by transient analysis.
type Capacitor struct {
	A, B   int // node indices; -1 is ground
	Farads float64
}

// Resistor connects two nodes (ground allowed on either side).
type Resistor struct {
	A, B int // node indices; -1 is ground
	Ohms float64
}

// CurrentSource draws Amps from Node to ground (a load).
type CurrentSource struct {
	Node int
	Amps float64
}

// VoltageSource pins Node to Volts against ground (an ideal supply).
type VoltageSource struct {
	Node  int
	Volts float64
}

// NewNetlist returns an empty netlist.
func NewNetlist() *Netlist {
	return &Netlist{tab: newNameTable()}
}

// Node interns a node name and returns its index; "0" and "gnd" (in any
// case) return -1. Indices are assigned in first-seen order. Node panics
// if the name table would outgrow its 32-bit offsets.
func (nl *Netlist) Node(name string) int {
	id := nl.tab.intern([]byte(name))
	if id == len(nl.names) { // first sighting: keep the caller's string
		nl.names = append(nl.names, name)
	}
	return id
}

// NodeName returns the interned name of node i.
func (nl *Netlist) NodeName(i int) string {
	if i < len(nl.names) {
		return nl.names[i]
	}
	return nl.tab.name(i) // mid-scan: not yet materialized
}

// NumNodes returns the number of named (non-ground) nodes.
func (nl *Netlist) NumNodes() int { return len(nl.names) }

// syncNames materializes the names interned since the last sync as
// substrings of a single string copied from the arena: one allocation
// for the whole batch instead of one per node.
func (nl *Netlist) syncNames() {
	lo, hi := len(nl.names), nl.tab.len()
	if lo == hi {
		return
	}
	base := nl.tab.offs[lo]
	all := string(nl.tab.arena[base:])
	nl.names = slices.Grow(nl.names, hi-lo)
	for i := lo; i < hi; i++ {
		nl.names = append(nl.names, all[nl.tab.offs[i]-base:nl.tab.offs[i+1]-base])
	}
}

// maxNames bounds the table: ids and arena offsets are 32-bit, and the
// slot array (at most half full) must stay addressable by a 32-bit tag.
const maxNames = 1<<31 - 1

var errNameTableFull = errors.New("powergrid: node-name table exceeds 32-bit limits")

// nameTable interns node names without a heap string per name: every
// name's bytes live in one arena (name i is arena[offs[i]:offs[i+1]]),
// and an open-addressing slot array finds a name's id by hash. A slot
// packs a 32-bit hash tag (high half) with id+1 (low half; 0 marks an
// empty slot). The tag's low bits pick the home slot, so growing the
// table re-places slots without rehashing a single name. The hash seed
// is per table, but ids are assigned in first-seen order, so node
// indices never depend on it.
type nameTable struct {
	seed  maphash.Seed
	arena []byte
	offs  []uint32 // len = names + 1
	slots []uint64 // power-of-two length, at most half full
}

func newNameTable() nameTable {
	return nameTable{
		seed:  maphash.MakeSeed(),
		arena: make([]byte, 0, 8<<10),
		offs:  make([]uint32, 1, 1024),
		slots: make([]uint64, 2048),
	}
}

func (t *nameTable) len() int { return len(t.offs) - 1 }

func (t *nameTable) name(i int) string { return string(t.arena[t.offs[i]:t.offs[i+1]]) }

var gndName = []byte("gnd")

// fits reports whether two more names of n bytes in total fit the
// table's 32-bit limits.
func (t *nameTable) fits(n int) bool {
	return t.len()+2 <= maxNames && uint64(len(t.arena))+uint64(n) <= math.MaxUint32
}

// intern returns name's id, adding it if unseen; ground ("0", "gnd" in
// any case) is -1. Callers check fits first; intern panics past the
// limits.
func (t *nameTable) intern(name []byte) int {
	if (len(name) == 1 && name[0] == '0') || bytes.EqualFold(name, gndName) {
		return -1
	}
	tag := uint32(maphash.Bytes(t.seed, name) >> 32)
	mask := uint32(len(t.slots) - 1)
	i := tag & mask
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if uint32(s>>32) == tag {
			id := uint32(s) - 1
			if bytes.Equal(t.arena[t.offs[id]:t.offs[id+1]], name) {
				return int(id)
			}
		}
		i = (i + 1) & mask
	}
	if !t.fits(len(name)) {
		panic(errNameTableFull)
	}
	id := t.len()
	t.arena = grow(t.arena, len(name))
	t.arena = append(t.arena, name...)
	t.offs = grow(t.offs, 1)
	t.offs = append(t.offs, uint32(len(t.arena)))
	t.slots[i] = uint64(tag)<<32 | uint64(id+1)
	if 2*(id+1) > len(t.slots) {
		t.rehome()
	}
	return id
}

// rehome doubles the slot array, placing each slot by its stored tag.
func (t *nameTable) rehome() {
	slots := make([]uint64, 2*len(t.slots))
	mask := uint32(len(slots) - 1)
	for _, s := range t.slots {
		if s == 0 {
			continue
		}
		i := uint32(s>>32) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	t.slots = slots
}

// grow makes room for n more elements, at least doubling the capacity
// when it reallocates: the ingest slices grow to millions of elements,
// and append's gentler growth past 256 would allocate dozens of times.
func grow[S ~[]E, E any](s S, n int) S {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s), 64))
}

// elementSink receives the typed elements of one netlist scan in file
// order. Any handler may be nil to skip that element kind.
type elementSink struct {
	onResistor func(Resistor) error
	onCurrent  func(CurrentSource) error
	onVoltage  func(VoltageSource) error
	onCap      func(Capacitor) error
}

// spaceClass classifies a byte for the field splitter: ASCII bytes are
// space or not by table, and bytes >= 0x80 start a UTF-8 sequence that
// must be decoded. The ASCII space set is unicode.IsSpace's.
var spaceClass = func() (c [256]uint8) {
	for b := 0x80; b < 0x100; b++ {
		c[b] = multiByte
	}
	for _, b := range []byte("\t\n\v\f\r ") {
		c[b] = asciiSpace
	}
	return c
}()

const (
	asciiSpace = 1
	multiByte  = 2
)

// field returns the bounds of the first field of line at or after i —
// a maximal run of runes that are not unicode.IsSpace, exactly as
// strings.Fields splits — or start == len(line) when none is left.
func field(line []byte, i int) (start, end int) {
	inField := false
	for i < len(line) {
		w, space := 1, false
		switch spaceClass[line[i]] {
		case asciiSpace:
			space = true
		case multiByte:
			var r rune
			r, w = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if inField {
				return start, i
			}
		} else if !inField {
			start, inField = i, true
		}
		i += w
	}
	if !inField {
		return len(line), len(line)
	}
	return start, len(line)
}

// trimmed returns line stripped of leading and trailing space, as
// strings.TrimSpace does, given the bounds of its first field.
func trimmed(line []byte, start, end int) string {
	for s, e := field(line, end); s < len(line); s, e = field(line, e) {
		end = e
	}
	return string(line[start:end])
}

// scan parses the IBM power-grid SPICE subset — lines starting with R/r
// (resistor), I/i (current load), V/v (voltage source), C/c (capacitor);
// comment lines (*), .op and .end cards are ignored — delivering each
// element to the sink in file order. Lines are tokenized in place in
// the scanner's buffer, and node names go straight from there into the
// intern table, so a scan allocates per table growth, not per line.
// Repeated scans of the same stream (the multi-pass ingest) assign
// identical node indices.
func (nl *Netlist) scan(r io.Reader, sink elementSink) error {
	defer nl.syncNames()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var f [4][]byte
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		start, end := field(line, 0)
		if start == len(line) || line[start] == '*' || line[start] == '.' {
			continue
		}
		nf := 0
		for s, e := start, end; nf < len(f) && s < len(line); s, e = field(line, e) {
			f[nf] = line[s:e]
			nf++
		}
		if nf < len(f) {
			return fmt.Errorf("powergrid: line %d: expected 4 fields, got %q", lineNo, trimmed(line, start, end))
		}
		val, err := strconv.ParseFloat(string(f[3]), 64)
		if err != nil {
			return fmt.Errorf("powergrid: line %d: bad value %q: %w", lineNo, f[3], err)
		}
		if !nl.tab.fits(len(f[1]) + len(f[2])) {
			return fmt.Errorf("powergrid: line %d: %w", lineNo, errNameTableFull)
		}
		switch line[start] {
		case 'R', 'r':
			if val <= 0 {
				return fmt.Errorf("powergrid: line %d: non-positive resistance %g", lineNo, val)
			}
			el := Resistor{A: nl.tab.intern(f[1]), B: nl.tab.intern(f[2]), Ohms: val}
			if sink.onResistor != nil {
				err = sink.onResistor(el)
			}
		case 'I', 'i':
			n, val := nl.source(f[1], f[2], val)
			if sink.onCurrent != nil {
				err = sink.onCurrent(CurrentSource{Node: n, Amps: val})
			}
		case 'V', 'v':
			n, val := nl.source(f[1], f[2], val)
			if sink.onVoltage != nil {
				err = sink.onVoltage(VoltageSource{Node: n, Volts: val})
			}
		case 'C', 'c':
			if val < 0 {
				return fmt.Errorf("powergrid: line %d: negative capacitance %g", lineNo, val)
			}
			el := Capacitor{A: nl.tab.intern(f[1]), B: nl.tab.intern(f[2]), Farads: val}
			if sink.onCap != nil {
				err = sink.onCap(el)
			}
		default:
			return fmt.Errorf("powergrid: line %d: unsupported element %q", lineNo, trimmed(line, start, end))
		}
		if err != nil {
			return err
		}
	}
	return sc.Err()
}

// source resolves a source card's node: one written against ground on
// its first terminal is read from the second, with the sign flipped.
func (nl *Netlist) source(p, q []byte, val float64) (int, float64) {
	if n := nl.tab.intern(p); n != -1 {
		return n, val
	}
	return nl.tab.intern(q), -val
}

// Parse reads the IBM power-grid SPICE subset: lines starting with R/r
// (resistor), I/i (current load), V/v (voltage source); comment lines
// (*), .op and .end cards are ignored.
func Parse(r io.Reader) (*Netlist, error) {
	nl := NewNetlist()
	err := nl.scan(r, elementSink{
		onResistor: func(el Resistor) error { nl.Resistors = append(nl.Resistors, el); return nil },
		onCurrent:  func(el CurrentSource) error { nl.Currents = append(nl.Currents, el); return nil },
		onVoltage:  func(el VoltageSource) error { nl.VSources = append(nl.VSources, el); return nil },
		onCap:      func(el Capacitor) error { nl.Capacitors = append(nl.Capacitors, el); return nil },
	})
	if err != nil {
		return nil, err
	}
	return nl, nil
}

// Write emits the netlist in the IBM benchmark format.
func (nl *Netlist) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	name := func(i int) string {
		if i == -1 {
			return "0"
		}
		return nl.names[i]
	}
	if _, err := fmt.Fprintf(bw, "* synthetic power grid netlist (%d nodes)\n", len(nl.names)); err != nil {
		return err
	}
	for i, r := range nl.Resistors {
		fmt.Fprintf(bw, "R%d %s %s %.10g\n", i, name(r.A), name(r.B), r.Ohms)
	}
	for i, c := range nl.Currents {
		fmt.Fprintf(bw, "I%d %s 0 %.10g\n", i, name(c.Node), c.Amps)
	}
	for i, c := range nl.Capacitors {
		fmt.Fprintf(bw, "C%d %s %s %.10g\n", i, name(c.A), name(c.B), c.Farads)
	}
	for i, v := range nl.VSources {
		fmt.Fprintf(bw, "V%d %s 0 %.10g\n", i, name(v.Node), v.Volts)
	}
	fmt.Fprintln(bw, ".op")
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// System is an assembled MNA system for the unknown (non-source) nodes.
type System struct {
	Sys *graph.SDDM
	B   []float64
	// Unknown[i] is the netlist node index of system unknown i.
	Unknown []int
	// Fixed[nodeIdx] holds voltages of source-pinned nodes.
	Fixed map[int]float64
}

// pinVoltage records one voltage source into the pinned-node map,
// rejecting conflicting pins of the same node.
func (nl *Netlist) pinVoltage(fixed map[int]float64, v VoltageSource) error {
	//pglint:float-exact duplicate-source check: two cards pinning one node conflict unless they parsed to the identical voltage
	if prev, ok := fixed[v.Node]; ok && prev != v.Volts {
		return fmt.Errorf("powergrid: node %s pinned to both %g and %g",
			nl.NodeName(v.Node), prev, v.Volts)
	}
	fixed[v.Node] = v.Volts
	return nil
}

// sysAccum accumulates the nodal-analysis system element by element:
// the Dirichlet reduction shared by BuildSystem (in-memory element
// slices) and ParseSystemFile (streaming). Feeding elements in the same
// order through either front-end yields identical systems.
type sysAccum struct {
	fixed   map[int]float64
	unk     []int // netlist node -> unknown index; -1 for pinned nodes
	unknown []int
	g       *graph.Graph
	d, b    []float64
}

// newSysAccum builds the unknown-index map from the pinned-node set and
// sizes the accumulation arrays. resistorCap reserves edge capacity.
func newSysAccum(numNodes, resistorCap int, fixed map[int]float64) *sysAccum {
	unk := make([]int, numNodes)
	var unknown []int
	for i := range unk {
		if _, pinned := fixed[i]; pinned {
			unk[i] = -1
		} else {
			unk[i] = len(unknown)
			unknown = append(unknown, i)
		}
	}
	n := len(unknown)
	return &sysAccum{
		fixed:   fixed,
		unk:     unk,
		unknown: unknown,
		g:       graph.New(n, resistorCap),
		d:       make([]float64, n),
		b:       make([]float64, n),
	}
}

// resistor folds one resistor into the system: an edge between two
// unknowns, diagonal slack for a grounded end, and a right-hand-side
// contribution for a source-pinned end.
func (sa *sysAccum) resistor(r Resistor) {
	w := 1 / r.Ohms
	a, c := r.A, r.B
	switch {
	case a == -1 && c == -1:
		return // both grounded: no effect
	case a == -1, c == -1:
		node := a
		if node == -1 {
			node = c
		}
		if u := sa.unk[node]; u >= 0 {
			sa.d[u] += w // resistor to ground
		}
	default:
		ua, uc := sa.unk[a], sa.unk[c]
		switch {
		case ua >= 0 && uc >= 0:
			if ua != uc {
				sa.g.MustAddEdge(ua, uc, w)
			}
		case ua >= 0: // c pinned
			sa.d[ua] += w
			sa.b[ua] += w * sa.fixed[c]
		case uc >= 0: // a pinned
			sa.d[uc] += w
			sa.b[uc] += w * sa.fixed[a]
		}
	}
}

// current folds one current load into the right-hand side.
func (sa *sysAccum) current(cs CurrentSource) {
	if u := sa.unk[cs.Node]; u >= 0 {
		sa.b[u] -= cs.Amps
	}
}

// finish coalesces the edge list and wraps the system.
func (sa *sysAccum) finish() (*System, error) {
	sys, err := graph.NewSDDM(sa.g.Coalesce(), sa.d)
	if err != nil {
		return nil, err
	}
	return &System{Sys: sys, B: sa.b, Unknown: sa.unknown, Fixed: sa.fixed}, nil
}

// BuildSystem assembles G·v = b by nodal analysis: ideal voltage-source
// nodes are eliminated (Dirichlet reduction: their resistive couplings
// move to the right-hand side), resistors to ground and sources
// contribute to the diagonal slack, and current loads fill b.
func (nl *Netlist) BuildSystem() (*System, error) {
	fixed := make(map[int]float64)
	for _, v := range nl.VSources {
		if err := nl.pinVoltage(fixed, v); err != nil {
			return nil, err
		}
	}
	sa := newSysAccum(nl.NumNodes(), len(nl.Resistors), fixed)
	for _, r := range nl.Resistors {
		sa.resistor(r)
	}
	for _, cs := range nl.Currents {
		sa.current(cs)
	}
	return sa.finish()
}

// ParseSystemFile assembles the MNA system straight from a netlist file
// in two streaming passes: the first interns node names, counts
// resistors and collects the voltage-source pins; the second folds
// resistors and current loads directly into the system arrays. The
// element slices Parse materializes (one struct per card, held
// alongside the assembled system) are never built, so peak ingest
// memory is the system plus the name table. The result is identical to
// Parse followed by BuildSystem — same element order through the same
// accumulation code.
//
// The returned Netlist carries the interned node names (for NodeName
// lookups against System.Unknown) but empty element slices.
func ParseSystemFile(path string) (*System, *Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()

	nl := NewNetlist()
	fixed := make(map[int]float64)
	resistors := 0
	err = nl.scan(f, elementSink{
		onResistor: func(Resistor) error { resistors++; return nil },
		onVoltage:  func(v VoltageSource) error { return nl.pinVoltage(fixed, v) },
	})
	if err != nil {
		return nil, nil, err
	}

	// Fill in two more passes — resistors, then current loads — because
	// BuildSystem folds every resistor into b before any load, and a
	// single file-order pass would interleave the float accumulations
	// and change the result's last bits.
	sa := newSysAccum(nl.NumNodes(), resistors, fixed)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	err = nl.scan(f, elementSink{
		onResistor: func(r Resistor) error { sa.resistor(r); return nil },
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	err = nl.scan(f, elementSink{
		onCurrent: func(cs CurrentSource) error { sa.current(cs); return nil },
	})
	if err != nil {
		return nil, nil, err
	}
	sys, err := sa.finish()
	if err != nil {
		return nil, nil, err
	}
	return sys, nl, nil
}

// ToNetlist renders a generated Grid as a netlist: wire and via segments
// become resistors, loads become current sources, and each pad becomes a
// pad resistor to a shared supply node pinned by one voltage source.
func (g *Grid) ToNetlist() *Netlist {
	nl := NewNetlist()
	ids := make([]int, g.N())
	for i := range ids {
		ids[i] = nl.Node(g.NodeName(i))
	}
	for _, e := range g.Sys.G.Edges {
		nl.Resistors = append(nl.Resistors, Resistor{A: ids[e.U], B: ids[e.V], Ohms: 1 / e.W})
	}
	vddNode := nl.Node("_vdd")
	for _, p := range g.PadNodes {
		nl.Resistors = append(nl.Resistors, Resistor{A: ids[p], B: vddNode, Ohms: g.Spec.PadRes})
	}
	nl.VSources = append(nl.VSources, VoltageSource{Node: vddNode, Volts: g.Spec.Vdd})
	for i, amps := range g.LoadAmps {
		if amps != 0 {
			nl.Currents = append(nl.Currents, CurrentSource{Node: ids[i], Amps: amps})
		}
	}
	return nl
}
