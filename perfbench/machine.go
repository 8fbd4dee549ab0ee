package main

import (
	"bufio"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// runMeta describes the machine and its load across one run, so that a
// run disturbed by a neighbour can be picked out instead of averaged in.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LLCBytes   int64   `json:"llc_bytes"`
	CopyGBps   float64 `json:"machine_copy_gbps"`
	// RefKernelMS is the median time of the reference kernel (refKernel)
	// over the run: the vCPU's speed, which steal time does not show.
	RefKernelMS float64 `json:"ref_kernel_ms"`
	// The timed ops' latency percentiles and throughput in wall-clock
	// units, for reading; the metrics report latency in reference units.
	LatencyP50MS   float64 `json:"latency_p50_ms"`
	LatencyP90MS   float64 `json:"latency_p90_ms"`
	ThroughputPerS float64 `json:"throughput_per_s"`
	// StealS is the CPU time the hypervisor gave to others during the
	// run, summed over CPUs; Load1 the 1-minute load average at start
	// and end.
	StealS     float64   `json:"steal_s"`
	Load1Start float64   `json:"load1_start"`
	Load1End   float64   `json:"load1_end"`
	WallS      float64   `json:"wall_s"`
	Commit     string    `json:"commit"`
	Source     string    `json:"source_digest"`
	start      time.Time // run start
	stealStart float64   // steal seconds at start
}

func startMeta() *runMeta {
	return &runMeta{start: time.Now(), stealStart: stealSeconds(), Load1Start: load1()}
}

func (m *runMeta) finish(name string, seed uint64, seconds float64, traced bool, copyGBps float64) {
	m.Workload, m.Seed, m.Seconds, m.Traced = name, seed, seconds, traced
	m.NumCPU = runtime.NumCPU()
	m.GOMAXPROCS = runtime.GOMAXPROCS(0)
	m.GoVersion = runtime.Version()
	m.LLCBytes = llcBytes()
	m.CopyGBps = copyGBps
	m.StealS = stealSeconds() - m.stealStart
	m.Load1End = load1()
	m.WallS = time.Since(m.start).Seconds()
	m.Commit = os.Getenv("PERFBENCH_COMMIT")
	if m.Commit == "" {
		m.Commit = "unknown"
	}
	m.Source = sourceDigest(".")
}

// refPasses sizes the reference kernel: about 5 ms on the machine in
// README.md when it runs at full speed.
const refPasses = 750

// refResult keeps the reference kernel's result observable.
var refResult atomic.Uint64

// refKernel runs the benchmark's fixed reference work and returns its
// wall time in milliseconds: refPasses passes of dependent multiply-adds
// over a 16 KiB array on the stack. It stays in L1, allocates nothing and
// calls nothing, so its time follows only the speed the vCPU runs at.
func refKernel() float64 {
	var a [2048]float64
	t0 := time.Now()
	s := 1.0
	for k := 0; k < refPasses; k++ {
		for i := range a {
			s = s*0.999 + a[i]
			a[i] = s * 1e-3
		}
	}
	refResult.Store(math.Float64bits(s))
	return msSince(t0)
}

// refPair measures one client's ops against the reference kernel, run
// just before and just after each op, outside its timed interval. The
// machine this benchmark runs on changes speed by as much as 1.7× from
// one run to the next (README.md, design notes), and every op slows with
// it; an op's latency over the mean of the two reference times around it
// does not.
type refPair struct {
	times []float64 // every reference time, milliseconds
}

func newRefPair() *refPair {
	return &refPair{times: []float64{refKernel()}}
}

// units runs the reference kernel after an op of latMS milliseconds and
// returns the op's latency in reference units.
func (p *refPair) units(latMS float64) float64 {
	before := p.times[len(p.times)-1]
	after := refKernel()
	p.times = append(p.times, after)
	return latMS / ((before + after) / 2)
}

// peakRSS reads the process's resident-set high-water mark (VmHWM).
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// llcBytes reads the size of the largest cache level cpu0 reports.
func llcBytes() int64 {
	var best int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		b, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// stealSeconds reads the machine-wide steal time from /proc/stat.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// copyBandwidth measures memory copy bandwidth, counting bytes read plus
// bytes written, over two arrays that together span four times the last
// level cache (at least 256 MiB). It reports the best of five copies and
// releases the arrays before returning.
func copyBandwidth() float64 {
	total := 4 * llcBytes()
	if total < 256<<20 {
		total = 256 << 20
	}
	n := int(total / 16) // two float64 arrays
	src := make([]float64, n)
	dst := make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src) // fault the destination in
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		copy(dst, src)
		if gbps := float64(16*n) / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	debug.FreeOSMemory() // src and dst are dead here

	return best
}

// sourceDigest fingerprints the Go sources and module files under root,
// identifying the code a run measured when no commit id is available.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := fnv.New64a()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}
