// Package frametest is the one corruption table every framed artifact
// is run through: the index, its deltas, the registry, the cluster's
// snapshot and delta chain, and journal segments.
package frametest

import (
	"fmt"
	"testing"
)

// Corrupt hands check every truncation of valid (each length short of
// the whole) and every single-byte flip of it (the lowest bit, then all
// eight), each as a private copy. check reports through t whatever its
// artifact's loader must not do with damaged bytes — accept them as a
// different artifact, above all; a panic inside check fails the test
// with the damage that caused it.
func Corrupt(t *testing.T, valid []byte, check func(damage string, bad []byte)) {
	t.Helper()
	run := func(damage string, bad []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: panic: %v", damage, r)
			}
		}()
		check(damage, bad)
	}
	for n := range valid {
		run(fmt.Sprintf("truncated to %d of %d bytes", n, len(valid)), append([]byte(nil), valid[:n]...))
	}
	for i := range valid {
		for _, mask := range []byte{0x01, 0xFF} {
			bad := append([]byte(nil), valid...)
			bad[i] ^= mask
			run(fmt.Sprintf("byte %d of %d xor %#02x", i, len(valid), mask), bad)
		}
	}
}
