package main

import (
	"fmt"
	"strings"

	"cablevod/internal/perf"
)

// layerRows are the rows CPU time is attributed to: the repository's
// modules, the standard-library codecs and network stack, Go's
// runtime, and everything else.
var layerRows = []string{
	"core", "cache", "eventq", "hfc", "metrics", "synth", "randdist",
	"universe", "telemetry", "serve", "json", "gob", "net", "runtime", "other",
}

// packageLayers maps a leaf frame's package to its row. Packages not
// listed land in "other".
var packageLayers = map[string]string{
	"cablevod/internal/core":      "core",
	"cablevod/internal/cache":     "cache",
	"cablevod/internal/eventq":    "eventq",
	"cablevod/internal/hfc":       "hfc",
	"cablevod/internal/metrics":   "metrics",
	"cablevod/internal/synth":     "synth",
	"cablevod/internal/randdist":  "randdist",
	"cablevod/internal/universe":  "universe",
	"cablevod/internal/telemetry": "telemetry",
	"cablevod/internal/serve":     "serve",
	"encoding/json":               "json",
	"encoding/gob":                "gob",
}

// packageOf returns the package path of a Go symbol name such as
// "cablevod/internal/core.(*System).SubmitBatch.func1" or
// "cablevod/internal/telemetry.(*Ring[go.shape.int]).Push". A package
// path never holds '(' or '[', so the path ends at the first '.' after
// the last '/' that precedes them.
func packageOf(symbol string) string {
	head := symbol
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// layerOf maps a leaf symbol to its row.
func layerOf(symbol string) string {
	pkg := packageOf(symbol)
	if l, ok := packageLayers[pkg]; ok {
		return l
	}
	switch {
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// attribute groups a CPU profile's flat weights by leaf package, so
// every sample lands in exactly one row. Samples without a symbolized
// leaf frame go to "other", which makes the rows sum to the profile
// total.
func attribute(p *perf.Profile) (rows map[string]int64, total int64, err error) {
	idx := p.ValueIndex("cpu")
	if idx < 0 {
		return nil, 0, fmt.Errorf("profile has no cpu column (have %v)", p.SampleTypes)
	}
	total = p.Total(idx)
	rows = make(map[string]int64, len(layerRows))
	var named int64
	for _, s := range p.Top(int(^uint(0)>>1), idx) {
		rows[layerOf(s.Name)] += s.Flat
		named += s.Flat
	}
	rows["other"] += total - named
	return rows, total, nil
}
