package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"cablevod/internal/perf"
)

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"cablevod/internal/core.(*System).SubmitBatch.func1":                "cablevod/internal/core",
		"cablevod/internal/telemetry.(*Ring[go.shape.int]).Push":            "cablevod/internal/telemetry",
		"cablevod/internal/cache.sortBy[cablevod/internal/trace.ProgramID]": "cablevod/internal/cache",
		"encoding/json.(*decodeState).object":                               "encoding/json",
		"runtime.mallocgc":                                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                      "internal/runtime/maps",
		"net/http.(*conn).serve":                                            "net/http",
		"main.main":                                                         "main",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
	for sym, want := range map[string]string{
		"cablevod/internal/eventq.(*Queue).Pop":        "eventq",
		"encoding/gob.(*Decoder).decodeStruct":         "gob",
		"net.(*conn).Read":                             "net",
		"net/textproto.(*Reader).ReadLine":             "net",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"runtime.scanobject":                           "runtime",
		"sort.Sort":                                    "other",
		"cablevod/internal/trace.Record.Validate":      "other",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestRowsSumToProfileTotal profiles real work through the same path
// the traced run uses and checks that the layer rows add up to the
// profile's total exactly.
func TestRowsSumToProfileTotal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	burnJSON(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := perf.ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, total, err := attribute(p)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("profile total %d: no samples", total)
	}
	var sum int64
	for l, v := range rows {
		if !contains(layerRows, l) {
			t.Errorf("row %q is not a layer row", l)
		}
		sum += v
	}
	if sum != total {
		t.Fatalf("rows sum to %d, profile total is %d", sum, total)
	}
	if rows["json"] == 0 {
		t.Errorf("json row is empty after a JSON-heavy burn: %v", rows)
	}
}

func burnJSON(d time.Duration) {
	v := map[string][]int{"a": make([]int, 512)}
	for end := time.Now().Add(d); time.Now().Before(end); {
		b, _ := json.Marshal(v)
		_ = json.NewDecoder(bytes.NewReader(b)).Decode(&v)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
