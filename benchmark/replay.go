package main

import (
	"time"

	"cablevod/internal/core"
	"cablevod/internal/serve"
)

// runReplay streams pre-generated traces through core.System: the
// engine hot path with no codec, telemetry or synth work timed.
func runReplay(e *env) (*report, error) {
	r := newReport()
	ins, err := timeSetup(e, r, func() ([]*traceInput, error) {
		ins, err := generateInputs(e)
		if err != nil {
			return nil, err
		}
		id := e.spans.begin("core.NewSystem", 0)
		_, err = core.NewSystem(plantConfig(2), core.WorkloadFromTrace(ins[0].tr))
		e.spans.end(id)
		return ins, err
	})
	if err != nil {
		return nil, err
	}
	if err := e.setReferences(ins); err != nil {
		return nil, err
	}

	passes, err := e.timedPasses(func(p *pass) error {
		in := ins[p.input]
		sys, err := core.NewSystem(plantConfig(p.par), core.WorkloadFromTrace(in.tr))
		if err != nil {
			return err
		}
		t0 := time.Now()
		// Live metrics are read at the cadence the serve daemon
		// publishes snapshots: every 6 h of virtual time.
		submitAll(e, r, sys, in.parts, p.id, serve.DefaultCheckpoint)
		ingest := time.Since(t0)
		p.measureHeap()
		t1 := time.Now()
		res, err := closeSystem(e, sys, p.id)
		p.wall = ingest + time.Since(t1)
		if err != nil {
			return err
		}
		p.records = len(in.tr.Records)
		r.check(res.Counters == in.want, "replay of input %d at Parallelism %d: counters %+v, pinned %+v", in.seed, p.par, res.Counters, in.want)
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.reportThroughput(r, passes)

	p2 := inPass(2)
	if !e.traced {
		sharded := selectPasses(passes, 2, false)
		r.set("submit_ms.p50", e.latency(sharded, "core.SubmitBatch", 0.5), "ms")
		r.set("submit_ms.p90", e.latency(sharded, "core.SubmitBatch", 0.9), "ms")
		r.set("scrape_ms.p50", e.latency(sharded, "core.Snapshot", 0.5), "ms")
		r.note("submit_ms: %d SubmitBatch calls of %d records; scrape_ms: %d Snapshot reads", len(e.spans.durations("core.SubmitBatch", p2)), chunk, len(e.spans.durations("core.Snapshot", p2)))
		return r, nil
	}

	// Fixed-input state timings on the first input's final engine state.
	in := ins[0]
	id := e.spans.begin("state", 0)
	sys, err := core.NewSystem(plantConfig(2), core.WorkloadFromTrace(in.tr))
	if err != nil {
		return nil, err
	}
	submitAll(e, r, sys, in.parts, id, 0)
	restored, err := stateRoundTrip(e, r, sys, id)
	if err != nil {
		return nil, err
	}
	res, err := restored.Close()
	if err != nil {
		return nil, err
	}
	e.spans.end(id)
	r.check(res.Counters == in.want, "replay restored from its final state: counters %+v, pinned %+v", res.Counters, in.want)
	reportCounts(r, res)
	e.reportSpans(r, p2)
	return r, nil
}
