package powergrid

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// The text-layer benchmarks run on the dc-cold grid family: a 520×520
// five-layer lattice with a 48-node pad pitch (524,160 nodes, ~703k
// resistors, ~26 MB of netlist), generated once per test binary.
var (
	dcColdOnce    sync.Once
	dcColdNetlist []byte
	dcColdNames   []string
	dcColdVolts   []float64
)

func dcCold(b *testing.B) ([]byte, []string, []float64) {
	b.Helper()
	dcColdOnce.Do(func() {
		dcColdNetlist = thupgNetlist(b, 520, 1)
		nl, err := Parse(bytes.NewReader(dcColdNetlist))
		if err != nil {
			b.Fatal(err)
		}
		s, err := nl.BuildSystem()
		if err != nil {
			b.Fatal(err)
		}
		dcColdNames = make([]string, len(s.Unknown))
		dcColdVolts = make([]float64, len(s.Unknown))
		for i, u := range s.Unknown {
			dcColdNames[i] = nl.NodeName(u)
			dcColdVolts[i] = 1.8 - 1e-3*float64(i%4099)/4099
		}
	})
	if dcColdNetlist == nil {
		b.Fatal("dc-cold fixture failed to build")
	}
	return dcColdNetlist, dcColdNames, dcColdVolts
}

func BenchmarkParse(b *testing.B) {
	src, _, _ := dcCold(b)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteSolution(b *testing.B) {
	_, names, v := dcCold(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteSolution(io.Discard, names, v); err != nil {
			b.Fatal(err)
		}
	}
}
