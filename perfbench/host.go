package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// host identifies the machine and build a result was measured on. Compare
// refuses results whose machine fields differ.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

func fingerprint() host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   "unknown",
	}
	// The go command stamps the git revision when it builds inside a
	// checkout with history; an exported tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

// sameMachine reports whether two results can be compared: the revision
// is what a comparison varies, everything else must match.
func (h host) sameMachine(o host) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.Go == o.Go
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
