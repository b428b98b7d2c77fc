package main

// An independent Go check of the Sort benchmark's output (bench.Sort): the
// same LCG input, sorted by the Go library, checksummed as the MiniML
// program does. The program's comparison count is not checked: it is a
// shared ref that concurrently scheduled futures update, so its value
// depends on the VM's thread interleaving, not on the algorithm alone.

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
)

// sortCheck returns a check that the Sort program's output line reports a
// sorted result with the reference checksum and draw count for size
// elements.
func sortCheck(size int) func(out string) error {
	seed := int64(123456789)
	xs := make([]int64, size)
	for i := range xs {
		seed = (seed*1103515245 + 12345) % 1073741824
		xs[i] = seed % 1000000
	}
	slices.Sort(xs)
	var sum int64
	for i, x := range xs {
		sum = (sum + x*int64(i+1)) % 1000000007
	}
	want := fmt.Sprintf("sorted checksum %d draws %d cmps ", sum, size)
	return func(out string) error {
		rest, ok := strings.CutPrefix(out, want)
		if !ok || !cmpsLine.MatchString(rest) {
			return fmt.Errorf("printed %q, want %q followed by a count", out, want)
		}
		return nil
	}
}

var cmpsLine = regexp.MustCompile(`^[0-9]+\n$`)

// exactly returns a check that the output is want.
func exactly(want string) func(out string) error {
	return func(out string) error {
		if out != want {
			return fmt.Errorf("printed %q, want %q", out, want)
		}
		return nil
	}
}
