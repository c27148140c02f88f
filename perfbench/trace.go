package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the tracer started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs measure end-to-end metrics
// without span overhead.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id returns a fresh span identifier (0 on a nil tracer).
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores one finished span.
func (t *tracer) record(name string, id, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// byParent indexes spans named name by their parent.
func (t *tracer) byParent(name string) map[int64]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]span{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Parent] = s
		}
	}
	return out
}

// childGap returns, for every span named parentName that has a child
// named childName, the parent's duration minus the child's, in ms.
func (t *tracer) childGap(parentName, childName string) []float64 {
	children := t.byParent(childName)
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name != parentName {
			continue
		}
		if c, ok := children[s.ID]; ok {
			out = append(out, float64((s.EndNS-s.StartNS)-(c.EndNS-c.StartNS))/1e6)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSampler reads the live heap between requests.
type runtimeSampler struct {
	mu   sync.Mutex
	live []float64 // MiB
}

var runtimeNames = []string{"/gc/heap/live:bytes", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

// read returns live heap, cumulative allocated bytes and GC cycles.
func readRuntime() (live, allocs, cycles uint64) {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// sample records the current live heap.
func (r *runtimeSampler) sample() {
	live, _, _ := readRuntime()
	r.mu.Lock()
	r.live = append(r.live, float64(live)/(1<<20))
	r.mu.Unlock()
}

// heapMB is the median live-heap reading. The live heap changes only when
// a GC ends, so a 30 s run of the 1M-row workload yields about fifteen
// distinct readings, and the upper ones depend on which query's working
// set a GC happened to catch; their 90th percentile moved by 8% between
// runs where the median holds.
func (r *runtimeSampler) heapMB() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.live)
}

// runtimeDelta measures allocation and GC work over a window.
type runtimeDelta struct{ allocs, cycles uint64 }

func startRuntimeDelta() runtimeDelta {
	_, a, c := readRuntime()
	return runtimeDelta{a, c}
}

// perQuery reports allocated MiB and GC cycles per query since start.
func (d runtimeDelta) perQuery(m metrics, queries int) {
	_, a, c := readRuntime()
	n := float64(max(queries, 1))
	m.set("runtime.alloc_mb_per_query", float64(a-d.allocs)/(1<<20)/n, "MB")
	m.set("runtime.gc_cycles_per_query", float64(c-d.cycles)/n, "count")
}

// cpuBuckets are the per-package CPU buckets reported per query.
var cpuBuckets = []string{"relational", "kernels", "sql", "dist", "netsim", "stream", "serve", "wire", "gc", "httpjson", "bench", "runtime", "other"}

// cpuProfile profiles the process while it runs fn, writes the profile
// to path and returns each bucket's CPU milliseconds.
func cpuProfile(path string, fn func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return attributeCPU(buf.Bytes())
}

// cpuMetrics reports each bucket's CPU per query and the two shares the
// workloads are meant to contrast.
func cpuMetrics(m metrics, ms map[string]float64, queries int) {
	n := float64(max(queries, 1))
	total := 0.0
	for _, b := range cpuBuckets {
		m.set(b+".cpu_ms_per_query", ms[b]/n, "ms")
		total += ms[b]
	}
	share := func(v float64) float64 {
		if total == 0 {
			return 0
		}
		return v / total
	}
	m.set("netsim.cpu_share", share(ms["netsim"]), "frac")
	m.set("relational_kernels.cpu_share", share(ms["relational"]+ms["kernels"]), "frac")
}

// gcRoots are runtime functions whose presence anywhere in a stack makes
// the sample garbage-collection work; benchRoots do the same for the
// benchmark's own output checks.
var (
	gcRoots = map[string]bool{
		"runtime.gcBgMarkWorker": true,
		"runtime.gcAssistAlloc":  true,
		"runtime.bgsweep":        true,
		"runtime.bgscavenge":     true,
	}
	benchRoots = map[string]bool{
		"main.decodeResponse": true,
		"main.fingerprint":    true,
	}
)

// bucketOf maps a sample's stack (leaf first) to its CPU bucket. GC and
// the benchmark's output checks have their own buckets. Otherwise the
// sample goes to the innermost frame under repro/internal, net/http or
// encoding/json, so runtime and standard-library code a module calls
// (map access, allocation, sorting) counts as that module's; samples
// with no such frame go to runtime or other.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		switch {
		case gcRoots[fn]:
			return "gc"
		case benchRoots[fn]:
			return "bench"
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		switch {
		case strings.HasPrefix(pkg, "net/http") || pkg == "encoding/json":
			return "httpjson"
		case pkg == "repro/internal/serve/wire":
			return "wire"
		case strings.HasPrefix(pkg, "repro/internal/"):
			mod := strings.TrimPrefix(pkg, "repro/internal/")
			if i := strings.IndexByte(mod, '/'); i >= 0 {
				mod = mod[:i]
			}
			for _, b := range cpuBuckets {
				if b == mod {
					return b
				}
			}
			return "other"
		}
	}
	if len(stack) > 0 && packageOf(stack[0]) == "runtime" {
		return "runtime"
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "repro/internal/relational.(*BatchGroupAgg).Next".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// attributeCPU decodes a gzipped pprof CPU profile and sums each bucket's
// self CPU time in milliseconds.
func attributeCPU(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		// The last value of a CPU profile sample is CPU nanoseconds.
		if len(s.values) > 0 {
			out[bucketOf(stack)] += float64(s.values[len(s.values)-1]) / 1e6
		}
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// pbField is one decoded protobuf field.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("cpu profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("cpu profile: bad varint")
			}
			f.v, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("cpu profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("cpu profile: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("cpu profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints reads a repeated integer field, packed or not.
func varints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("cpu profile: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*profile, error) {
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	for _, f := range fields {
		switch f.num {
		case 2: // Sample
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, sf := range sub {
				vs, err := varints(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // Line
					line, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.num == 1 {
							funcs = append(funcs, x.v)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // Function
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	for _, idx := range p.funcNames {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, fmt.Errorf("cpu profile: string index %d out of range", idx)
		}
	}
	return p, nil
}

// outPath names a trace artifact for this run.
func (c runConfig) outPath(kind string) string {
	return filepath.Join(c.outDir, fmt.Sprintf("%s-seed%d.%s", c.workload, c.seed, kind))
}
