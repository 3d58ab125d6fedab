package main

import (
	"bytes"
	"testing"
)

// TestReferenceFileCanonical checks that reference.json loads, matches
// the benchmark's inputs, and is in the form --pin writes.
func TestReferenceFileCanonical(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs.Replay) == 0 || len(refs.Replay) != len(refs.LongRun) {
		t.Fatalf("%d replay and %d longrun references", len(refs.Replay), len(refs.LongRun))
	}
	got, err := formatReferences(refs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceFile) {
		t.Fatal("reference.json is not in the form --pin writes; regenerate it with --pin")
	}
}
