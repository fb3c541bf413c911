package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSnapshotFingerprints round-trips a snapshot through its JSON form,
// reads a bare table array (the format before fingerprints) with no
// machine, and requires Compare's report to open with both fingerprints.
func TestSnapshotFingerprints(t *testing.T) {
	tab := &Table{ID: "T9", Header: []string{"rounds", "ms"}, Rows: [][]string{{"7", "1.5"}}}
	m := CurrentMachine()
	if m.NumCPU < 1 || m.GOMAXPROCS < 1 || m.Go == "" || m.CPU == "" || m.Commit == "" {
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
