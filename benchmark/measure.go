package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"cablevod/internal/perf"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, so one slow build does not move it.
const setupReps = 5

// env is one workload run's context.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	dir      string // scratch directory, removed when the run ends
	refs     *references

	spans spanLog
	prof  profileTotals
}

// report collects a workload's metrics, operation counts and checks.
type report struct {
	metrics map[string]metric
	ops     opCounts
	notes   []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, ops: opCounts{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one output check as an operation: a mismatch fails the
// run and counts as a failed operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.ops.add("check", ok)
	if !ok {
		r.note("CHECK FAILED: "+format, args...)
	}
}

// correct is true when no operation failed, checks included.
func (r *report) correct() bool { return r.ops.failed() == 0 }

func (r *report) print(w io.Writer, e *env) {
	mode := "end-to-end (untraced)"
	if e.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed=%d %s\n", e.workload, e.seed, mode)
	for _, k := range sortedKeys(r.metrics) {
		m := r.metrics[k]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.ops) {
		c := r.ops[k]
		fmt.Fprintf(w, "ops %-32s attempted=%d failed=%d\n", k, c.attempted, c.failed)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// opCounts counts attempted and failed operations by kind.
type opCounts map[string]*opCount

type opCount struct{ attempted, failed int }

func (o opCounts) add(kind string, ok bool) {
	c := o[kind]
	if c == nil {
		c = &opCount{}
		o[kind] = c
	}
	c.attempted++
	if !ok {
		c.failed++
	}
}

func (o opCounts) attempted() (n int) {
	for _, c := range o {
		n += c.attempted
	}
	return n
}

func (o opCounts) failed() (n int) {
	for _, c := range o {
		n += c.failed
	}
	return n
}

// pass is one timed pass over a workload's whole input.
type pass struct {
	par     int
	traced  bool
	input   int // index of the run's input the pass replays
	id      int // the pass's span
	records int
	wall    time.Duration
	// base is the live heap before the pass, read after forced
	// collections outside the timed and profiled section.
	base float64
	// heapLive is the live heap after the ingest, over base. Only
	// untraced passes read it: the forced collections it takes would
	// land in a traced pass's profile.
	heapLive float64
	gcCycles float64
}

func (p *pass) rate() float64 { return float64(p.records) / p.wall.Seconds() }

// passFunc runs one timed pass at the given engine parallelism. The
// pass's span is the parent of every span the pass records.
type passFunc func(p *pass) error

// timedPasses alternates serial (Parallelism 1) and sharded
// (Parallelism 2) passes in rounds, swapping the order every round so
// slow drift hits both sides alike. Both passes of a round replay the
// same input, and rounds rotate through the run's inputs. The run ends
// only after a whole cycle of inputsPerRun rounds, and only when
// another cycle would not fit in the run's seconds, so every input has
// the same number of passes however fast the code runs. A traced run
// adds a profiled sharded pass to every round.
func (e *env) timedPasses(fn passFunc) ([]*pass, error) {
	var passes []*pass
	start := time.Now()
	var cycleStart time.Time
	for round := 0; ; round++ {
		in := round % inputsPerRun
		if in == 0 {
			cycleStart = time.Now()
		}
		order := []*pass{{par: 1, input: in}, {par: 2, input: in}}
		if round%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		if e.traced {
			order = append(order, &pass{par: 2, input: in, traced: true})
		}
		for _, p := range order {
			name := fmt.Sprintf("pass.p%d", p.par)
			if p.traced {
				name += ".traced"
			}
			p.base = liveHeap()
			p.id = e.spans.begin(name, 0)
			var err error
			if p.traced {
				err = e.profiled(p, func() error { return fn(p) })
			} else {
				err = fn(p)
			}
			e.spans.end(p.id)
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
		}
		if in == inputsPerRun-1 && (time.Since(start)+time.Since(cycleStart)).Seconds() > e.seconds {
			return passes, nil
		}
	}
}

// measureHeap sets p.heapLive from a live-heap reading over p.base.
// Traced passes skip it, so their profiles and runtime figures hold
// only the collections the program runs itself.
func (p *pass) measureHeap() {
	if !p.traced {
		p.heapLive = max(p.heapLive, (liveHeap()-p.base)/1e6)
	}
}

// selectPasses returns the passes at one parallelism, traced or not.
func selectPasses(passes []*pass, par int, traced bool) []*pass {
	var out []*pass
	for _, p := range passes {
		if p.par == par && p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// reportThroughput sets the metrics every workload derives from its
// passes: records_per_s (Parallelism 2), records_per_s.serial
// (Parallelism 1), heap_live_mb and, in traced runs, the speedup, GC
// cycles and tracing overhead. Each, like every latency, is the mean
// over the run's inputs of the median over that input's passes: every
// input weighs the same however many rounds fit in the run, and a
// pass slowed by a noisy neighbour moves no median.
func (e *env) reportThroughput(r *report, passes []*pass) {
	rate := func(ps []*pass) float64 { return perInput(ps, (*pass).rate) }
	p1, p2 := selectPasses(passes, 1, false), selectPasses(passes, 2, false)
	r.note("%d serial and %d sharded passes over %d inputs", len(p1), len(p2), inputsCovered(p2))
	if !e.traced {
		r.set("records_per_s", rate(p2), "1/s")
		r.set("records_per_s.serial", rate(p1), "1/s")
		r.set("heap_live_mb", perInput(p2, func(p *pass) float64 { return p.heapLive }), "MB")
		return
	}
	tr := selectPasses(passes, 2, true)
	r.set("core.speedup", rate(p2)/rate(p1), "ratio")
	r.set("bench.tracing_overhead_pct", 100*(rate(p2)-rate(tr))/rate(p2), "%")
	r.set("runtime.gc_cycles", perInput(tr, func(p *pass) float64 { return p.gcCycles }), "count")
	records := 0
	for _, p := range tr {
		records += p.records
	}
	e.prof.report(r, records)
}

// latency is the q-quantile of the named spans inside each pass,
// reduced over passes like every other per-pass figure.
func (e *env) latency(passes []*pass, name string, q float64) float64 {
	return perInput(passes, func(p *pass) float64 { return quantile(e.spans.durationsIn(name, p.id), q) })
}

// inputsCovered counts the distinct inputs among ps.
func inputsCovered(ps []*pass) int {
	seen := map[int]bool{}
	for _, p := range ps {
		seen[p.input] = true
	}
	return len(seen)
}

// perInput is the mean over inputs of the median of f over each
// input's passes.
func perInput(ps []*pass, f func(*pass) float64) float64 {
	by := map[int][]float64{}
	for _, p := range ps {
		by[p.input] = append(by[p.input], f(p))
	}
	sum := 0.0
	for _, xs := range by {
		sum += median(xs)
	}
	return sum / float64(len(by))
}

// timeSetup builds a workload's inputs setupReps times, reports the
// median as setup_s, and returns the last build.
func timeSetup[T any](e *env, r *report, build func() (T, error)) (T, error) {
	var out T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		id := e.spans.begin("setup", 0)
		t0 := time.Now()
		v, err := build()
		secs = append(secs, time.Since(t0).Seconds())
		e.spans.end(id)
		if err != nil {
			return out, err
		}
		out = v
	}
	if !e.traced {
		r.set("setup_s", median(secs), "s")
	}
	return out, nil
}

// liveHeap returns the live heap in bytes after two forced
// collections: buffers parked in a sync.Pool (the JSON encoder keeps
// its largest one there) survive the first and would make the reading
// depend on how many collections ran since they were last used.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// spanLog keeps the run's spans in memory. Every latency the benchmark
// reports is read from it; a traced run also writes it out.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) ms() float64 { return (s.End - s.Start) * 1e3 }

// begin opens a span and returns its ID (IDs start at 1; parent 0 is
// the run itself).
func (l *spanLog) begin(name string, parent int) int {
	if l.t0.IsZero() {
		l.t0 = time.Now()
	}
	now := time.Since(l.t0).Seconds()
	l.spans = append(l.spans, span{Name: name, ID: len(l.spans) + 1, Parent: parent, Start: now, End: now})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = time.Since(l.t0).Seconds() }

// add records a span whose start was observed earlier.
func (l *spanLog) add(name string, parent int, start, end time.Time) {
	if l.t0.IsZero() {
		l.t0 = start
	}
	l.spans = append(l.spans, span{Name: name, ID: len(l.spans) + 1, Parent: parent,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds()})
}

// durations returns the milliseconds of every span called name whose
// parent pass satisfies keep.
func (l *spanLog) durations(name string, keep func(parent span) bool) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name != name {
			continue
		}
		if keep != nil && (s.Parent == 0 || !keep(l.spans[s.Parent-1])) {
			continue
		}
		out = append(out, s.ms())
	}
	return out
}

// durationsIn returns the milliseconds of every span called name
// whose parent is the span parent.
func (l *spanLog) durationsIn(name string, parent int) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.Parent == parent {
			out = append(out, s.ms())
		}
	}
	return out
}

// inPass selects spans recorded in untraced passes at par.
func inPass(par int) func(span) bool {
	name := fmt.Sprintf("pass.p%d", par)
	return func(p span) bool { return p.Name == name }
}

// write saves the spans as JSON to path.
func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// profileTotals accumulates the traced passes' CPU attribution and
// runtime/metrics deltas.
type profileTotals struct {
	rows           map[string]int64
	total          int64
	gcCPU, busyCPU float64
	allocBytes     float64
	allocObjects   float64
	n              int
}

// runtimeSamples are read before and after every traced pass. The
// runtime updates the /cpu/classes figures only when a collection
// finishes marking, so their deltas span from the forced collection
// that precedes the pass (taken for p.base) to the last collection
// that finished inside it: the GC share is measured over that window,
// and over busy CPU, not over idle Ps.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

// profiled runs fn under the CPU profiler and runtime/metrics, and
// folds the profile's per-layer attribution into e.prof.
func (e *env) profiled(p *pass, fn func() error) error {
	path := filepath.Join(e.dir, fmt.Sprintf("cpu-%d.pprof", e.prof.n))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	before := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	after := readRuntime()
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	prof, err := perf.ParseFile(path)
	if err != nil {
		return err
	}
	rows, total, err := attribute(prof)
	if err != nil {
		return err
	}
	t := &e.prof
	if t.rows == nil {
		t.rows = map[string]int64{}
	}
	for k, v := range rows {
		t.rows[k] += v
	}
	t.total += total
	t.gcCPU += after[0] - before[0]
	t.busyCPU += (after[1] - before[1]) - (after[2] - before[2])
	t.allocBytes += after[3] - before[3]
	t.allocObjects += after[4] - before[4]
	p.gcCycles = after[5] - before[5]
	t.n++
	return nil
}

// report sets the per-layer CPU rows and runtime metrics.
func (t *profileTotals) report(r *report, records int) {
	n := float64(records)
	for _, l := range layerRows {
		r.set(l+".cpu_ns_per_record", float64(t.rows[l])/n, "ns")
	}
	r.set("cpu_ns_per_record", float64(t.total)/n, "ns")
	// If no collection finished inside a traced pass the window is
	// empty and the share reads 0.
	share := 0.0
	if t.busyCPU > 0 {
		share = t.gcCPU / t.busyCPU
	}
	r.set("runtime.gc_cpu_share", share, "ratio")
	r.set("runtime.alloc_bytes_per_record", t.allocBytes/n, "B")
	r.set("runtime.allocs_per_record", t.allocObjects/n, "count")
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
