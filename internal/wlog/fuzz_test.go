package wlog

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the WLog front end, seeded with the
// example programs under programs/ and the paper's Example 1. Parse must
// never panic, and it returns exactly one of a program or an error.
//
// Run it with: go test -run '^$' -fuzz FuzzParse -fuzztime 20s ./internal/wlog/
func FuzzParse(f *testing.F) {
	f.Add(example1)
	paths, err := filepath.Glob(filepath.Join("..", "..", "programs", "*.wlog"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no seed programs found under programs/")
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Parse returned program %v and error %v; want exactly one", prog != nil, err)
		}
	})
}
