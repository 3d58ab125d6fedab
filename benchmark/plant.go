package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
	"cablevod/internal/universe"
)

// Input sizes. Every workload runs the paper population (41,698
// subscribers, 8,278 programs). A run draws inputsPerRun inputs from
// its seed and rotates through them round by round: a seed's catalog
// draw moves the live heap by up to 10% and the cost of a record by a
// few percent, and averaging several draws narrows that between runs.
// traceDays of records is about 160k session records, so a run holds
// many rounds to take medians over.
const (
	inputsPerRun = 4
	traceDays    = 2
	// chunk is the records per SubmitBatch call and per POST /submit.
	// It is chosen, not taken from a caller: submit_ms.p90 needs at
	// least 100 calls per pass, so a 2-day pass allows at most about
	// 1,600 records a call. The repository's own HTTP feeder posts
	// whole days of up to 100,000 records, so per-call overhead weighs
	// far more here; README.md says what that means for the figures.
	chunk = 1000
)

// plantConfig is the replay and ingest-http plant: 1,000-subscriber
// neighborhoods, 10 GB boxes, LFU.
func plantConfig(par int) core.Config {
	return core.Config{
		Topology:    hfc.Config{NeighborhoodSize: 1000, PerPeerStorage: 10 * units.GB},
		Strategy:    core.StrategyLFU,
		Parallelism: par,
	}
}

// inputSeeds derives the generator seeds of a run's inputs.
func inputSeeds(seed uint64) []uint64 {
	out := make([]uint64, inputsPerRun)
	for i := range out {
		out[i] = seed*inputsPerRun + uint64(i)
	}
	return out
}

// traceInput is one generated trace, cut into SubmitBatch chunks, with
// the final counters the engine must reach on it.
type traceInput struct {
	seed  uint64
	tr    *trace.Trace
	parts [][]trace.Record
	want  core.Counters
}

// generateInputs draws the run's traces.
func generateInputs(e *env) ([]*traceInput, error) {
	var ins []*traceInput
	for _, seed := range inputSeeds(e.seed) {
		tr, err := generateTrace(e, seed)
		if err != nil {
			return nil, err
		}
		ins = append(ins, &traceInput{seed: seed, tr: tr, parts: chunks(tr.Records)})
	}
	return ins, nil
}

// setReferences looks up each input's reference counters.
func (e *env) setReferences(ins []*traceInput) error {
	for _, in := range ins {
		var err error
		if in.want, err = e.refs.replayCounters(in.seed, in.tr); err != nil {
			return err
		}
	}
	return nil
}

// generateTrace draws the seed's trace, recording a synth span.
func generateTrace(e *env, seed uint64) (*trace.Trace, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.Days = traceDays
	id := e.spans.begin("synth.Generate", 0)
	defer e.spans.end(id)
	return synth.Generate(cfg)
}

// chunks splits recs into SubmitBatch-sized pieces.
func chunks(recs []trace.Record) [][]trace.Record {
	var out [][]trace.Record
	for i := 0; i < len(recs); i += chunk {
		out = append(out, recs[i:min(i+chunk, len(recs))])
	}
	return out
}

// submitAll feeds every chunk through SubmitBatch, one span per call.
// every > 0 also reads the live metrics after each chunk that crosses
// another multiple of every in virtual time.
func submitAll(e *env, r *report, sys *core.System, parts [][]trace.Record, parent int, every time.Duration) {
	next := every
	for i, part := range parts {
		id := e.spans.begin("core.SubmitBatch", parent)
		err := sys.SubmitBatch(part)
		e.spans.end(id)
		r.ops.add("submit_batch", err == nil)
		if err != nil {
			r.note("SubmitBatch %d: %v", i, err)
		}
		if now := part[len(part)-1].Start; every > 0 && now >= next {
			id := e.spans.begin("core.Snapshot", parent)
			sys.Snapshot()
			e.spans.end(id)
			r.ops.add("scrape", true)
			for next <= now {
				next += every
			}
		}
	}
}

// timed runs fn under a span.
func (e *env) timed(name string, parent int, fn func() error) error {
	id := e.spans.begin(name, parent)
	defer e.spans.end(id)
	return fn()
}

// closeSystem closes sys under a span.
func closeSystem(e *env, sys *core.System, parent int) (res *core.Result, err error) {
	err = e.timed("core.Close", parent, func() error { res, err = sys.Close(); return err })
	return res, err
}

// stateRoundTrip exports sys's state, writes it through the snapshot
// codec, reads it back and restores it, with a span per step. The
// restored system must export the same canonical digest; it is
// returned still open.
func stateRoundTrip(e *env, r *report, sys *core.System, parent int) (*core.System, error) {
	st, digest, err := exportDigest(e, sys, parent)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, "roundtrip.snap")
	if err := saveState(e, r, path, st, parent); err != nil {
		return nil, err
	}
	restored, err := loadAndRestore(e, path, parent)
	if err != nil {
		return nil, err
	}
	_, got, err := exportDigest(e, restored, parent)
	if err != nil {
		return nil, err
	}
	r.check(got == digest, "state round trip: restored digest %s, exported %s", got, digest)
	return restored, nil
}

// exportDigest exports sys's state and its canonical digest, each
// under a span.
func exportDigest(e *env, sys *core.System, parent int) (st *core.SystemState, digest string, err error) {
	err = e.timed("core.ExportState", parent, func() error { st, err = sys.ExportState(); return err })
	if err == nil {
		err = e.timed("universe.StateDigest", parent, func() error { digest, err = universe.StateDigest(st); return err })
	}
	return st, digest, err
}

// saveState writes st under a span and, in a traced run, reports the
// file's size.
func saveState(e *env, r *report, path string, st *core.SystemState, parent int) error {
	if err := e.timed("gob.SaveStateFile", parent, func() error { return core.SaveStateFile(path, st) }); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if e.traced {
		r.set("gob.state_file_mb", float64(fi.Size())/1e6, "MB")
	}
	return nil
}

// loadAndRestore reads a snapshot file and restores it at
// Parallelism 2, with a span per step.
func loadAndRestore(e *env, path string, parent int) (sys *core.System, err error) {
	var st *core.SystemState
	err = e.timed("gob.LoadStateFile", parent, func() error { st, err = core.LoadStateFile(path); return err })
	if err == nil {
		err = e.timed("core.RestoreSystem", parent, func() error {
			sys, err = core.RestoreSystem(st, core.RestoreOptions{Parallelism: 2})
			return err
		})
	}
	return sys, err
}

// reportCounts sets the simulated counts of a final result. They do
// not depend on speed, so a speed-only change leaves them unchanged.
func reportCounts(r *report, res *core.Result) {
	c := res.Counters
	r.set("core.sessions", float64(c.Sessions), "count")
	r.set("core.segment_requests", float64(c.SegmentRequests), "count")
	r.set("core.fills", float64(c.Fills), "count")
	r.set("cache.hit_ratio", c.HitRatio(), "ratio")
	r.set("cache.evictions_per_admission", ratio(c.Evictions, c.Admissions), "ratio")
	r.set("hfc.coax_overloads", float64(c.CoaxOverloads), "count")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// reportSpans sets the per-layer span metrics of a traced run. A span
// a workload never records reads 0. keep selects the passes whose
// engine calls are reported.
func (e *env) reportSpans(r *report, keep func(span) bool) {
	l := &e.spans
	med := func(name string, keep func(span) bool) float64 {
		d := l.durations(name, keep)
		if len(d) == 0 {
			return 0
		}
		return median(d)
	}
	r.set("core.submit_batch_ms.p50", med("core.SubmitBatch", keep), "ms")
	r.set("core.close_ms", med("core.Close", keep), "ms")
	r.set("synth.generate_s", med("synth.Generate", nil)/1e3, "s")
	r.set("universe.leg_s.p50", med("universe.leg", nil)/1e3, "s")
	late := 0.0
	for _, d := range l.durations("serve.scrape_lateness", nil) {
		late = max(late, d)
	}
	r.set("serve.scrape_lateness_ms.max", late, "ms")
	for name, metricName := range map[string]string{
		"core.ExportState":     "core.export_state_ms",
		"universe.StateDigest": "universe.state_digest_ms",
		"gob.SaveStateFile":    "gob.save_state_ms",
		"gob.LoadStateFile":    "gob.load_state_ms",
		"core.RestoreSystem":   "core.restore_ms",
	} {
		r.set(metricName, med(name, nil), "ms")
	}
	if err := l.write(filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("spans-%s-seed%d.json", e.workload, e.seed))); err != nil {
		r.note("writing spans: %v", err)
	}
}
