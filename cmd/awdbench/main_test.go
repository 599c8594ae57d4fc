package main

import "testing"

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
