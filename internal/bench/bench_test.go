package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllTablesRenderAtQuickScale(t *testing.T) {
	tables := All(Scale(4))
	if len(tables) != len(Index) {
		t.Fatalf("expected %d experiments, got %d", len(Index), len(tables))
	}
	seen := map[string]bool{}
	for _, tab := range tables {
		if tab.ID == "" || tab.Title == "" || tab.Claim == "" {
			t.Errorf("table %q missing metadata", tab.ID)
		}
		if seen[tab.ID] {
			t.Errorf("duplicate table id %s", tab.ID)
		}
		seen[tab.ID] = true
		if len(tab.Rows) == 0 {
			t.Errorf("table %s has no rows (notes: %v)", tab.ID, tab.Notes)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("table %s: row width %d != header %d", tab.ID, len(row), len(tab.Header))
			}
		}
	}
	out := RenderAll(tables)
	for _, id := range []string{"T1", "T1b", "T2", "T3", "T4", "T5", "T6", "F1", "E1", "B1"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Errorf("rendered report missing %s", id)
		}
	}
}

func TestB1ResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	tab := B1(Scale(4))
	if len(tab.Rows) < 2 {
		t.Fatalf("B1 produced %d rows (notes: %v)", len(tab.Rows), tab.Notes)
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("batch results diverged across worker counts: %v", row)
		}
	}
}

// TestE1FloodCountsExact: every E1 row floods each edge in both
// directions for 40 rounds, so its round and message counts are fixed by
// the grid alone.
func TestE1FloodCountsExact(t *testing.T) {
	tab := E1(Scale(4))
	if len(tab.Rows) == 0 {
		t.Fatalf("E1 produced no rows (notes: %v)", tab.Notes)
	}
	for _, row := range tab.Rows {
		m, _ := strconv.Atoi(row[1])
		if row[2] != "40" || row[3] != strconv.Itoa(2*m*40) {
			t.Errorf("E1 row %v: want 40 rounds and %d messages", row, 2*m*40)
		}
	}
}

func TestT5ReportsExactMST(t *testing.T) {
	tab := T5(Scale(2))
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("MST specialization not exact: %v", row)
		}
	}
}

func TestF1DecodesCorrectly(t *testing.T) {
	tab := F1(Scale(2))
	for _, row := range tab.Rows {
		if row[2] != row[3] {
			t.Errorf("gadget decoded wrong answer: %v", row)
		}
	}
}

func TestT4SpeedupGrows(t *testing.T) {
	tab := T4(Scale(2))
	if len(tab.Rows) < 2 {
		t.Fatal("need at least two rows")
	}
	first := tab.Rows[0][3]
	last := tab.Rows[len(tab.Rows)-1][3]
	if first >= last && len(first) >= len(last) {
		t.Errorf("speedup did not grow: first %s, last %s", first, last)
	}
}
