package main

import (
	"reflect"
	"testing"
)

// TestCommitStamp pins the ledger stamp: a clean tree stamps the bare
// hash, a dirty one appends the first 12 hex digits of its diff's SHA-256
// (SHA-256("abc") = ba7816bf8f01cfea…, SHA-256("abd") = a52d159f262b2c6d…),
// so equal diffs stamp alike and a one-byte change moves the stamp.
func TestCommitStamp(t *testing.T) {
	const head = "4861047"
	for _, tc := range []struct {
		name string
		diff []byte
		want string
	}{
		{"clean tree", []byte{}, head},
		{"dirty tree", []byte("abc"), head + "+ba7816bf8f01"},
		{"same diff, same stamp", []byte("abc"), head + "+ba7816bf8f01"},
		{"different diff, different stamp", []byte("abd"), head + "+a52d159f262b"},
	} {
		if got := commitStamp(head, tc.diff); got != tc.want {
			t.Errorf("%s: commitStamp = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestProcsStamp pins the parallelism stamp: the -N suffix go test appends
// to a benchmark name is its GOMAXPROCS, a name without one ran at 1, and
// lines that disagree (a -cpu sweep) stamp the sorted distinct values.
// Hyphens inside a row name (dc-motor, closed-loop) are not a suffix.
func TestProcsStamp(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lines []string
		want  any
	}{
		{"one row", []string{"BenchmarkDetectorStep-2"}, 2},
		{"rows agree", []string{"BenchmarkFleetSteps/streams=1000-8", "BenchmarkFleetAddStream/model=dc-motor-8"}, 8},
		{"no suffix is 1", []string{"BenchmarkFleetSteps/input=closed-loop,streams=1000", "BenchmarkFleetAddStream/model=dc-motor"}, 1},
		{"-cpu sweep", []string{"BenchmarkX-4", "BenchmarkX", "BenchmarkX-2", "BenchmarkY-4"}, []int{1, 2, 4}},
	} {
		if got := procsStamp(tc.lines); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: procsStamp = %#v, want %#v", tc.name, got, tc.want)
		}
	}
}
