package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/scenario"
	"cablevod/internal/units"
	"cablevod/internal/universe"
)

const (
	// longrunDays of 24 h legs; the first invocation stops after
	// firstLegs and the second resumes from its checkpoint.
	longrunDays = 2
	firstLegs   = 1
)

// longrunTier is the paper population on a heterogeneous 4-16 GB
// fleet with the proportionally scaled catalog. 42 neighborhoods is
// the universe's paper plant (993 subscribers each).
func longrunTier(seed uint64) universe.Config {
	return universe.Config{
		Name:          "paper-hetero",
		Description:   "paper population on a 4-16 GB fleet",
		Subscribers:   41_698,
		Neighborhoods: 42,
		Catalog:       universe.ScaledCatalog(41_698),
		Days:          longrunDays,
		Seed:          seed,
		HeteroMin:     4 * units.GB,
		HeteroMax:     16 * units.GB,
	}
}

// longrunBase is the engine policy: LFU (the global-lfu scorer cannot
// export state).
func longrunBase(par int) core.Config {
	return core.Config{Strategy: core.StrategyLFU, Parallelism: par}
}

// runLongRun drives universe.LongRun in two invocations per pass:
// stream generation, sharded ingest, checkpoint codecs and the resume
// path are all timed.
func runLongRun(e *env) (*report, error) {
	r := newReport()
	type input struct {
		tier universe.Config
		// legEnds is the cumulative record count at each leg boundary,
		// which each leg is checked against.
		legEnds []int
		want    string
	}
	// Setup generates each input's stream once to learn its leg
	// boundaries.
	ins, err := timeSetup(e, r, func() ([]*input, error) {
		var ins []*input
		for _, seed := range inputSeeds(e.seed) {
			in := &input{tier: longrunTier(seed)}
			id := e.spans.begin("synth.Generate", 0)
			stream, _, err := scenario.NewStream(in.tier.Spec(), in.tier.EngineConfig(longrunBase(2)).Topology)
			if err != nil {
				return nil, err
			}
			total := 0
			for hour := 1; !stream.Done(); hour++ {
				recs, _, err := stream.NextHour()
				if err != nil {
					return nil, err
				}
				total += len(recs)
				if hour%24 == 0 || stream.Done() {
					in.legEnds = append(in.legEnds, total)
				}
			}
			e.spans.end(id)
			ins = append(ins, in)
		}
		return ins, os.MkdirAll(filepath.Join(e.dir, "ckpt"), 0o755)
	})
	if err != nil {
		return nil, err
	}
	for _, in := range ins {
		if in.want, err = e.refs.longRunDigest(in.tier.Seed, filepath.Join(e.dir, "reference")); err != nil {
			return nil, err
		}
	}

	dir := filepath.Join(e.dir, "ckpt")
	statePath := filepath.Join(dir, "state.snap")
	var last *universe.LongRunResult
	passes, err := e.timedPasses(func(p *pass) error {
		in := ins[p.input]
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		// Time spent measuring in OnLeg is paused out of the pass.
		var paused time.Duration
		legStart := time.Now()
		opts := universe.LongRunOptions{Dir: dir, MaxLegs: firstLegs, OnLeg: func(li universe.LegInfo) {
			now := time.Now()
			defer func() { legStart = time.Now(); paused += legStart.Sub(now) }()
			e.spans.add("universe.leg", p.id, legStart, now)
			ok := li.Leg <= len(in.legEnds) && li.Submitted == in.legEnds[li.Leg-1]
			r.ops.add("leg", ok)
			if !ok {
				r.note("input %d leg %d: %d records submitted, the stream has %v", in.tier.Seed, li.Leg, li.Submitted, in.legEnds)
			}
			p.measureHeap()
			// A status display reads the checkpoint's header.
			id := e.spans.begin("core.PeekStateHeader", p.id)
			_, at, submitted, err := core.PeekStateHeader(statePath)
			e.spans.end(id)
			r.ops.add("scrape", err == nil && at <= li.At && submitted == li.Submitted)
		}}
		t0 := time.Now()
		first, err := universe.LongRun(in.tier, longrunBase(p.par), opts)
		if err != nil {
			return fmt.Errorf("first invocation: %w", err)
		}
		opts.MaxLegs = 0
		legStart = time.Now()
		final, err := universe.LongRun(in.tier, longrunBase(p.par), opts)
		if err != nil {
			return fmt.Errorf("resumed invocation: %w", err)
		}
		p.wall = time.Since(t0) - paused
		p.records = final.Submitted
		r.check(first.LegsRun == firstLegs && !first.Done && final.Resumed && final.Done,
			"invocations: first ran %d legs (done=%v), second resumed=%v done=%v", first.LegsRun, first.Done, final.Resumed, final.Done)
		r.check(final.Digest == in.want, "long run of input %d at Parallelism %d: digest %s, pinned %s", in.tier.Seed, p.par, final.Digest, in.want)
		last = final
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.reportThroughput(r, passes)

	// The codec round trip of the final checkpoint must reproduce its
	// digest, and the restored engine must close to the same result.
	id := e.spans.begin("state", 0)
	restored, err := loadAndRestore(e, statePath, id)
	if err != nil {
		return nil, err
	}
	st, digest, err := exportDigest(e, restored, id)
	if err != nil {
		return nil, err
	}
	r.check(digest == last.Digest, "final checkpoint round trip: digest %s, run reported %s", digest, last.Digest)
	if err := saveState(e, r, filepath.Join(e.dir, "roundtrip.snap"), st, id); err != nil {
		return nil, err
	}
	res, err := closeSystem(e, restored, id)
	if err != nil {
		return nil, err
	}
	e.spans.end(id)
	r.check(res.Counters == last.Result.Counters, "restored final checkpoint closes to %+v, the run closed to %+v", res.Counters, last.Result.Counters)

	p2 := inPass(2)
	if !e.traced {
		sharded := selectPasses(passes, 2, false)
		r.set("submit_ms.p50", e.latency(sharded, "universe.leg", 0.5), "ms")
		r.set("submit_ms.p90", e.latency(sharded, "universe.leg", 0.9), "ms")
		r.set("scrape_ms.p50", e.latency(sharded, "core.PeekStateHeader", 0.5), "ms")
		r.note("submit_ms: %d legs of 24 h (leg wall time, checkpoint included); scrape_ms: %d checkpoint-header reads", len(e.spans.durations("universe.leg", p2)), len(e.spans.durations("core.PeekStateHeader", p2)))
		return r, nil
	}
	reportCounts(r, last.Result)
	e.reportSpans(r, func(p span) bool { return p.Name == "pass.p2" || p.Name == "state" })
	return r, nil
}
