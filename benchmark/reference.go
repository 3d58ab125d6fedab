package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cablevod/internal/core"
	"cablevod/internal/trace"
	"cablevod/internal/universe"
)

// referenceFile pins, per seed, the final replay counters and the
// digest of an uninterrupted long run, computed by --pin. A change that
// alters what the engine computes fails these checks; a speed-only
// change passes them.
//
//go:embed reference.json
var referenceFile []byte

// referenceParams names the inputs the pins depend on; pins made for
// other inputs are refused rather than silently skipped.
var referenceParams = fmt.Sprintf("trace_days=%d plant=1000x10GB/lfu longrun=%s/%dd/24h-legs/lfu",
	traceDays, longrunTier(0).Name, longrunDays)

type references struct {
	Params  string                    `json:"params"`
	Replay  map[string]pinnedCounters `json:"replay"`
	LongRun map[string]string         `json:"longrun"`
}

// pinnedCounters mirrors core.Counters field by field.
type pinnedCounters struct {
	Sessions        uint64 `json:"sessions"`
	SegmentRequests uint64 `json:"segment_requests"`
	Hits            uint64 `json:"hits"`
	MissNotCached   uint64 `json:"miss_not_cached"`
	MissUnplaced    uint64 `json:"miss_unplaced"`
	MissPeerBusy    uint64 `json:"miss_peer_busy"`
	MissFirstFetch  uint64 `json:"miss_first_fetch"`
	Fills           uint64 `json:"fills"`
	CoaxOverloads   uint64 `json:"coax_overloads"`
	Admissions      uint64 `json:"admissions"`
	Evictions       uint64 `json:"evictions"`
}

func (p pinnedCounters) counters() core.Counters { return core.Counters(p) }

func loadReferences() (*references, error) {
	var refs references
	if err := json.Unmarshal(referenceFile, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if refs.Params != referenceParams {
		return nil, fmt.Errorf("reference.json was pinned for %q, the benchmark runs %q: re-pin with --pin", refs.Params, referenceParams)
	}
	return &refs, nil
}

// replayCounters returns the pinned final counters for seed. A seed
// outside the pinned range gets its reference from a serial
// single-batch run of the same trace.
func (refs *references) replayCounters(seed uint64, tr *trace.Trace) (core.Counters, error) {
	if c, ok := refs.Replay[strconv.FormatUint(seed, 10)]; ok {
		return c.counters(), nil
	}
	return serialCounters(tr)
}

func serialCounters(tr *trace.Trace) (core.Counters, error) {
	sys, err := core.NewSystem(plantConfig(1), core.WorkloadFromTrace(tr))
	if err != nil {
		return core.Counters{}, err
	}
	if err := sys.SubmitBatch(tr.Records); err != nil {
		return core.Counters{}, err
	}
	res, err := sys.Close()
	if err != nil {
		return core.Counters{}, err
	}
	return res.Counters, nil
}

// longRunDigest returns the pinned final digest for seed, or computes
// it from an uninterrupted serial run in dir.
func (refs *references) longRunDigest(seed uint64, dir string) (string, error) {
	if d, ok := refs.LongRun[strconv.FormatUint(seed, 10)]; ok {
		return d, nil
	}
	return uninterruptedDigest(seed, dir)
}

func uninterruptedDigest(seed uint64, dir string) (string, error) {
	res, err := universe.LongRun(longrunTier(seed), longrunBase(1), universe.LongRunOptions{Dir: dir})
	if err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return res.Digest, nil
}

// pinReferences recomputes the references of every input of the runs
// with seeds lo..hi and writes benchmark/reference.json (run from the
// repository root).
func pinReferences(span string) error {
	loS, hiS, ok := strings.Cut(span, "-")
	lo, err1 := strconv.ParseUint(loS, 10, 64)
	hi, err2 := strconv.ParseUint(hiS, 10, 64)
	if !ok || err1 != nil || err2 != nil || lo > hi {
		return fmt.Errorf("--pin wants LO-HI, got %q", span)
	}
	refs := references{Params: referenceParams, Replay: map[string]pinnedCounters{}, LongRun: map[string]string{}}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "pin"))
	if err != nil {
		return err
	}
	e := &env{}
	for run := lo; run <= hi; run++ {
		for _, seed := range inputSeeds(run) {
			key := strconv.FormatUint(seed, 10)
			tr, err := generateTrace(e, seed)
			if err != nil {
				return err
			}
			c, err := serialCounters(tr)
			if err != nil {
				return err
			}
			refs.Replay[key] = pinnedCounters(c)
			if refs.LongRun[key], err = uninterruptedDigest(seed, filepath.Join(scratch, key)); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "pinned the inputs of seed %d\n", run)
	}
	b, err := formatReferences(&refs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "reference.json"), b, 0o644)
}

// formatReferences renders refs as JSON with one seed per line, in
// seed order.
func formatReferences(refs *references) ([]byte, error) {
	var b bytes.Buffer
	params, err := json.Marshal(refs.Params)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "{\n \"params\": %s,\n", params)
	if err := writeSection(&b, "replay", refs.Replay, ","); err != nil {
		return nil, err
	}
	if err := writeSection(&b, "longrun", refs.LongRun, ""); err != nil {
		return nil, err
	}
	b.WriteString("}\n")
	return b.Bytes(), nil
}

func writeSection[V any](b *bytes.Buffer, name string, m map[string]V, end string) error {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		n, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return fmt.Errorf("reference key %q is not a seed", k)
		}
		keys = append(keys, n)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fmt.Fprintf(b, " %q: {\n", name)
	for i, k := range keys {
		v, err := json.Marshal(m[strconv.FormatUint(k, 10)])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(b, "  \"%d\": %s%s\n", k, v, sep)
	}
	fmt.Fprintf(b, " }%s\n", end)
	return nil
}
