package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/serve"
	"cablevod/internal/trace"
)

// scrapeInterval is the open-loop /metrics schedule. It is chosen, not
// taken from a caller (nothing in the repository scrapes on a
// schedule): a sharded pass lasts well under a second on two cores,
// and 20 ms gives each pass a few dozen scrapes to take a median over.
const scrapeInterval = 20 * time.Millisecond

// runIngest posts the trace to an in-process ingest-mode daemon over
// one keep-alive connection, closed loop (each POST waits for its ack,
// since /submit must stay start-ordered), while a second connection
// scrapes /metrics on a fixed schedule.
func runIngest(e *env) (*report, error) {
	r := newReport()
	type input struct {
		*traceInput
		bodies [][]byte
	}
	ins, err := timeSetup(e, r, func() ([]input, error) {
		traces, err := generateInputs(e)
		if err != nil {
			return nil, err
		}
		id := e.spans.begin("json.encode_bodies", 0)
		ins := make([]input, len(traces))
		for i, in := range traces {
			ins[i] = input{in, make([][]byte, len(in.parts))}
			for j, part := range in.parts {
				if ins[i].bodies[j], err = json.Marshal(map[string][]trace.Record{"records": part}); err != nil {
					return nil, err
				}
			}
		}
		e.spans.end(id)
		id = e.spans.begin("serve.New", 0)
		d, err := startDaemon(traces[0].tr, 2)
		e.spans.end(id)
		if err != nil {
			return nil, err
		}
		_, err = d.stop()
		return ins, err
	})
	if err != nil {
		return nil, err
	}
	traces := make([]*traceInput, len(ins))
	for i, in := range ins {
		traces[i] = in.traceInput
	}
	if err := e.setReferences(traces); err != nil {
		return nil, err
	}

	results := make([][]*core.Result, len(ins))
	passes, err := e.timedPasses(func(p *pass) error {
		in := ins[p.input]
		d, err := startDaemon(in.tr, p.par)
		if err != nil {
			return err
		}
		feeder, scraper := newClient(), newClient()
		defer feeder.CloseIdleConnections()
		defer scraper.CloseIdleConnections()

		t0 := time.Now()
		stop := make(chan struct{})
		var scrapes []scrapeSample
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			scrapes = scrapeLoop(scraper, d.url+"/metrics", t0, stop)
		}()
		for i, body := range in.bodies {
			start := time.Now()
			err := post(feeder, d.url+"/submit", body)
			e.spans.add("http.POST /submit", p.id, start, time.Now())
			r.ops.add("post", err == nil)
			if err != nil {
				r.note("POST %d: %v", i, err)
			}
		}
		ingest := time.Since(t0)
		close(stop)
		wg.Wait()
		for _, s := range scrapes {
			e.spans.add("serve.scrape_lateness", p.id, s.due, s.start)
			e.spans.add("http.GET /metrics", p.id, s.due, s.end)
			r.ops.add("scrape", s.err == nil)
		}
		p.measureHeap()
		res, err := d.stop()
		if err != nil {
			return err
		}
		p.wall = ingest
		p.records = len(in.tr.Records)
		results[p.input] = append(results[p.input], res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.reportThroughput(r, passes)

	// Each daemon's final result must equal a direct SubmitBatch of the
	// same records, which must equal the pinned replay reference.
	var first *core.Result
	for i, in := range ins {
		id := e.spans.begin("reference", 0)
		sys, err := core.NewSystem(plantConfig(2), core.WorkloadFromTrace(in.tr))
		if err != nil {
			return nil, err
		}
		submitAll(e, r, sys, in.parts, id, 0)
		if e.traced && i == 0 {
			restored, err := stateRoundTrip(e, r, sys, id)
			if err != nil {
				return nil, err
			}
			res, err := restored.Close()
			if err != nil {
				return nil, err
			}
			results[i] = append(results[i], res)
		}
		want, err := closeSystem(e, sys, id)
		if err != nil {
			return nil, err
		}
		e.spans.end(id)
		if first == nil {
			first = want
		}
		r.check(want.Counters == in.want, "direct SubmitBatch of input %d: counters %+v, pinned %+v", in.seed, want.Counters, in.want)
		for _, res := range results[i] {
			r.check(res.Counters == want.Counters && res.ServerBits == want.ServerBits && res.DemandBits == want.DemandBits,
				"input %d: daemon result %+v (server %d b, demand %d b), direct %+v (server %d b, demand %d b)",
				in.seed, res.Counters, res.ServerBits, res.DemandBits, want.Counters, want.ServerBits, want.DemandBits)
		}
	}

	p2 := inPass(2)
	if !e.traced {
		sharded := selectPasses(passes, 2, false)
		r.set("submit_ms.p50", e.latency(sharded, "http.POST /submit", 0.5), "ms")
		r.set("submit_ms.p90", e.latency(sharded, "http.POST /submit", 0.9), "ms")
		r.set("scrape_ms.p50", e.latency(sharded, "http.GET /metrics", 0.5), "ms")
		r.note("submit_ms: %d POSTs of %d records; scrape_ms: %d scrapes every %v, timed from when due", len(e.spans.durations("http.POST /submit", p2)), chunk, len(e.spans.durations("http.GET /metrics", p2)), scrapeInterval)
		return r, nil
	}
	reportCounts(r, first)
	e.reportSpans(r, func(p span) bool { return p.Name == "reference" })
	return r, nil
}

// daemon is one in-process ingest-mode server.
type daemon struct {
	srv    *serve.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(tr *trace.Trace, par int) (*daemon, error) {
	srv, err := serve.New(serve.Options{
		Addr:     "127.0.0.1:0",
		Engine:   plantConfig(par),
		Workload: core.WorkloadFromTrace(tr),
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: srv, url: "http://" + srv.Addr(), cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Run(ctx) }()
	return d, nil
}

// stop shuts the daemon down, which closes its engine, and returns the
// final result.
func (d *daemon) stop() (*core.Result, error) {
	d.cancel()
	if err := <-d.done; err != nil {
		return nil, err
	}
	return d.srv.Result()
}

// newClient is an HTTP client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func post(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return drain(resp)
}

// drain reads and closes a response so its connection is reused, and
// turns a non-2xx status into an error.
func drain(resp *http.Response) error {
	_, err := io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("status %s", resp.Status)
	}
	return err
}

type scrapeSample struct {
	due, start, end time.Time
	err             error
}

// scrapeLoop GETs url every scrapeInterval from t0 until stop closes.
// Each scrape is timed from when it was due, so a stall also counts
// against the scrapes queued behind it.
func scrapeLoop(c *http.Client, url string, t0 time.Time, stop <-chan struct{}) []scrapeSample {
	var out []scrapeSample
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * scrapeInterval)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return out
		case <-timer.C:
		}
		s := scrapeSample{due: due, start: time.Now()}
		resp, err := c.Get(url)
		if err == nil {
			err = drain(resp)
		}
		s.end, s.err = time.Now(), err
		out = append(out, s)
	}
}
