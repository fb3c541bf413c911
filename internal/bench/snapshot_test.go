package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSnapshotFingerprints round-trips a snapshot through its JSON form,
// reads a bare table array (the format before fingerprints) with no
// machine, and requires Compare's report to open with both fingerprints.
func TestSnapshotFingerprints(t *testing.T) {
	tab := &Table{ID: "T9", Header: []string{"rounds", "ms"}, Rows: [][]string{{"7", "1.5"}}}
	m := CurrentMachine()
	if m.NumCPU < 1 || m.GOMAXPROCS < 1 || m.Go == "" || m.CPU == "" || !strings.HasPrefix(m.Commit, "src-sha256:") {
		t.Fatalf("incomplete fingerprint %+v", *m)
	}
	data, err := json.Marshal(Snapshot{Machine: m, Tables: []*Table{tab}})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if *cur.Machine != *m || len(cur.Tables) != 1 {
		t.Fatalf("round trip gave %+v with %d tables", cur.Machine, len(cur.Tables))
	}
	bare, err := json.Marshal([]*Table{tab})
	if err != nil {
		t.Fatal(err)
	}
	old, err := ParseSnapshot(bare)
	if err != nil {
		t.Fatal(err)
	}
	if old.Machine != nil || len(old.Tables) != 1 {
		t.Fatalf("bare array gave machine %v with %d tables", old.Machine, len(old.Tables))
	}
	res := Compare(old, cur, 10, 25)
	want := "old machine: not recorded\nnew machine: " + m.String() + "\n"
	if !strings.HasPrefix(res.Report, want) || res.Drift || res.Regression {
		t.Errorf("report %q (drift %v, regression %v), want it to open with %q", res.Report, res.Drift, res.Regression, want)
	}
}

// TestSourceHashTracksEdits: the commit field names the source tree, so
// an edit to a Go file or go.mod changes it, and nothing else does — not
// a snapshot written beside the code, nor a file under a dot-directory.
func TestSourceHashTracksEdits(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module demo\n")
	write("a.go", "package demo\n")
	write("sub/b.go", "package sub\n")
	steps := []struct {
		name, rel, body string
		changes         bool
	}{
		{"source edit", "a.go", "package demo\n\nconst x = 1\n", true},
		{"nested source edit", "sub/b.go", "package sub // edited\n", true},
		{"new source file", "c.go", "package demo\n", true},
		{"go.mod edit", "go.mod", "module demo\n\ngo 1.24\n", true},
		{"snapshot written", "BENCH_pr10.json", "{}\n", false},
		{"README edit", "README.md", "# demo\n", false},
		{"dot-directory source", ".build/x.go", "package x\n", false},
	}
	prev := sourceHash(root)
	if !strings.HasPrefix(prev, "src-sha256:") {
		t.Fatalf("sourceHash = %q, want a src-sha256: hash", prev)
	}
	for _, s := range steps {
		write(s.rel, s.body)
		cur := sourceHash(root)
		if (cur != prev) != s.changes {
			t.Errorf("%s: hash %s -> %s, want changed=%v", s.name, prev, cur, s.changes)
		}
		prev = cur
	}
	if got := sourceHash(""); got != "unknown" {
		t.Errorf(`sourceHash("") = %q, want "unknown"`, got)
	}
}
