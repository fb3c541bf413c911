package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Snapshot is what dsfbench -json emits: the tables and the machine they
// were recorded on, so a timing figure is never read without its host.
type Snapshot struct {
	Machine *Machine `json:"machine"`
	Tables  []*Table `json:"tables"`
}

// Machine fingerprints the host and the code of a recording.
type Machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// CurrentMachine fingerprints this process's host. Commit names the code,
// not a git revision: "src-sha256:" and a hash of the Go sources of the
// module enclosing the working directory (see sourceHash), or "unknown"
// outside a module. A snapshot committed in the change that records it
// thus names that change's code, and writing a snapshot over a committed
// one does not alter the hash.
func CurrentMachine() *Machine {
	return &Machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Commit:     sourceHash(moduleRoot()),
	}
}

// String renders m on one line; a snapshot recorded before fingerprints
// existed has none.
func (m *Machine) String() string {
	if m == nil {
		return "not recorded"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s cpu=%q commit=%s", m.NumCPU, m.GOMAXPROCS, m.Go, m.CPU, m.Commit)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// moduleRoot is the nearest directory at or above the working directory
// that holds a go.mod, or "" when there is none.
func moduleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// sourceHash hashes every *.go and *.mod file under root, skipping
// dot-directories, as relative path, NUL, contents, in walk order: the
// scheme perfbench/context.go falls back to for a plain source export,
// so both name one tree alike. Any other file (a snapshot, a README)
// leaves it unchanged.
func sourceHash(root string) string {
	if root == "" {
		return "unknown"
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// ParseSnapshot decodes a dsfbench -json snapshot. It also reads the bare
// table array that snapshots were before they recorded a machine; those
// come back with a nil Machine.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "[") {
		err := json.Unmarshal(data, &s.Tables)
		return &s, err
	}
	err := json.Unmarshal(data, &s)
	return &s, err
}
