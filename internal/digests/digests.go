// Package digests is the shared half of the repository's characterization
// suites (noc's arbitration.digests, smcore's and mc's tick.digests): a
// per-cycle state hasher, the mixing function scripted stubs derive their
// decisions from, and the committed-file check. Test support only — nothing
// outside _test.go files imports it.
package digests

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Mix is the splitmix64 finalizer: scripted stubs make every decision a
// pure function of (cycle, packet) by mixing the two.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// Hash is a running FNV-1a 64 digest (the same function as hash/fnv's
// New64a, folded inline: the suites hash a few hundred words per simulated
// cycle, and under the race detector a call per word dominates them).
type Hash uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// New returns an empty digest.
func New() *Hash {
	h := Hash(fnvOffset64)
	return &h
}

// Ints folds vals into the digest, eight little-endian bytes each.
func (d *Hash) Ints(vals ...int64) {
	h := uint64(*d)
	for _, v := range vals {
		for i := 0; i < 64; i += 8 {
			h = (h ^ uint64(byte(v>>i))) * fnvPrime64
		}
	}
	*d = Hash(h)
}

// Write folds raw bytes, so formatted text can be hashed with fmt.Fprintf.
func (d *Hash) Write(p []byte) (int, error) {
	h := uint64(*d)
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	*d = Hash(h)
	return len(p), nil
}

// String renders the digest the way the committed files spell it.
func (d *Hash) String() string { return fmt.Sprintf("%016x", uint64(*d)) }

// Check compares got[i] with the digest the committed file (one "key
// digest" pair per line) holds for keys[i] and returns one message per
// discrepancy, spelling out at most ten mismatches. With update set it
// rewrites the file from got instead.
func Check(file string, update bool, keys, got []string) []string {
	if update {
		var sb strings.Builder
		for i, key := range keys {
			fmt.Fprintf(&sb, "%s %s\n", key, got[i])
		}
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			return []string{err.Error()}
		}
		if err := os.WriteFile(file, []byte(sb.String()), 0o644); err != nil {
			return []string{err.Error()}
		}
		return nil
	}
	f, err := os.Open(file)
	if err != nil {
		return []string{err.Error()}
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if key, dig, ok := strings.Cut(sc.Text(), " "); ok {
			want[key] = dig
		}
	}
	var msgs []string
	if len(want) != len(keys) {
		msgs = append(msgs, fmt.Sprintf("%s holds %d digests, the grid has %d cases", file, len(want), len(keys)))
	}
	failed := 0
	for i, key := range keys {
		if want[key] != got[i] {
			if failed++; failed <= 10 {
				msgs = append(msgs, fmt.Sprintf("%s: digest %s, want %s", key, got[i], want[key]))
			}
		}
	}
	if failed > 10 {
		msgs = append(msgs, fmt.Sprintf("... and %d more mismatches", failed-10))
	}
	return msgs
}
