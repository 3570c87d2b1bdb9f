// Package hoststamp identifies the host and build a benchmark ran on, so a
// BENCH file says where its numbers came from: the CPU counts bound any
// parallel speedup, and the Go version and commit name the code measured.
package hoststamp

import (
	"runtime"
	"runtime/debug"
)

// Host is the stamp written into BENCH files.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the VCS revision the binary was built from, suffixed
	// "+dirty" when the tree had uncommitted changes, or "none" when the
	// build carries no VCS information (go run and go test builds).
	Commit string `json:"commit"`
}

// Stamp returns the current host and build.
func Stamp() Host {
	commit, dirty := "none", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty && commit != "none" {
		commit += "+dirty"
	}
	return Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit}
}
