package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
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
	for _, id := range []string{"T1", "T1b", "T2", "T3", "T4", "T5", "T6", "F1", "E5"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Errorf("rendered report missing %s", id)
		}
	}
}

// TestE5FloodCountsExact: E5's parked+flood row floods each edge in both
// directions once per cycle, six cycles of floodIdle+1 rounds, so its
// round and message counts are fixed by the grid alone.
func TestE5FloodCountsExact(t *testing.T) {
	tab := E5(Scale(4))
	found := false
	for _, row := range tab.Rows {
		if row[0] != "parked+flood" {
			continue
		}
		found = true
		m, _ := strconv.Atoi(row[2])
		if row[3] != "1200" || row[4] != strconv.Itoa(12*m) {
			t.Errorf("E5 row %v: want 1200 rounds and %d messages", row, 12*m)
		}
	}
	if !found {
		t.Fatalf("E5 produced no parked+flood row (notes: %v)", tab.Notes)
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

// TestT1bShowsItsClaim requires T1b's instance to show what the table is
// for: det runs several merge phases, rounded runs fewer phases than
// there are threshold checks in every row, and the rounded thresholds
// change the forest in at least one row.
func TestT1bShowsItsClaim(t *testing.T) {
	tab := T1b(Scale(3))
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (notes %v)", len(tab.Rows), tab.Notes)
	}
	changed := false
	for _, row := range tab.Rows {
		det, _ := strconv.Atoi(row[1])
		run, _ := strconv.Atoi(row[2])
		checks, _ := strconv.Atoi(row[3])
		if det < 2 || run >= checks {
			t.Errorf("eps %s: det %d merge phases, rounded %d phases for %d checks", row[0], det, run, checks)
		}
		changed = changed || row[4] != row[5]
	}
	if !changed {
		t.Error("no row's rounded forest differs from det's")
	}
}

// TestRetryDelayPinned pins RetryPolicy's backoff schedule, jitter
// included, to values recorded before the jitter got its own SplitMix64
// helper, so S1's retry timing is unchanged by that move.
func TestRetryDelayPinned(t *testing.T) {
	cases := []struct {
		p                      RetryPolicy
		reqIdx, attempt, hintS int
		want                   time.Duration
	}{
		{RetryPolicy{Max: 3, Base: time.Millisecond, Cap: 40 * time.Millisecond, Seed: 7}, 0, 0, 0, 874487},
		{RetryPolicy{Max: 3, Base: time.Millisecond, Cap: 40 * time.Millisecond, Seed: 7}, 1, 1, 0, 2635272},
		{RetryPolicy{Max: 3, Base: time.Millisecond, Cap: 40 * time.Millisecond, Seed: 7}, 5, 2, 0, 4755110},
		{RetryPolicy{Max: 3, Base: time.Millisecond, Cap: 40 * time.Millisecond, Seed: 7}, 17, 3, 1, 58925338},
		{RetryPolicy{Max: 3, Base: time.Millisecond, Cap: 40 * time.Millisecond, Seed: 7}, 100, 4, 0, 23819640},
		{RetryPolicy{Max: 3}, 0, 0, 0, 1322465},
		{RetryPolicy{Max: 3}, 1, 1, 0, 2850093},
		{RetryPolicy{Max: 3}, 5, 2, 0, 2623273},
		{RetryPolicy{Max: 3}, 17, 3, 1, 801139985},
		{RetryPolicy{Max: 3}, 100, 4, 0, 16398609},
		{RetryPolicy{Max: 5, Base: 2 * time.Millisecond, Seed: -3}, 0, 0, 0, 2853533},
		{RetryPolicy{Max: 5, Base: 2 * time.Millisecond, Seed: -3}, 1, 1, 0, 3285485},
		{RetryPolicy{Max: 5, Base: 2 * time.Millisecond, Seed: -3}, 5, 2, 0, 11408298},
		{RetryPolicy{Max: 5, Base: 2 * time.Millisecond, Seed: -3}, 17, 3, 1, 727884226},
		{RetryPolicy{Max: 5, Base: 2 * time.Millisecond, Seed: -3}, 100, 4, 0, 43081846},
	}
	for _, c := range cases {
		if got := c.p.delay(c.reqIdx, c.attempt, c.hintS); got != c.want {
			t.Errorf("%+v.delay(%d, %d, %d) = %d, want %d", c.p, c.reqIdx, c.attempt, c.hintS, got, c.want)
		}
	}
}

// TestJitterProperties: the retry jitter source is nonzero, collision-free
// over a run's worth of (request, attempt) slots, deterministic, and
// treats seed 0 as the default seed 1.
func TestJitterProperties(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		j := jitter(42, i)
		if j == 0 {
			t.Fatalf("jitter(42, %d) = 0", i)
		}
		if seen[j] {
			t.Fatalf("jitter(42, %d) collides", i)
		}
		seen[j] = true
		if j != jitter(42, i) {
			t.Fatalf("jitter(42, %d) not deterministic", i)
		}
	}
	if jitter(0, 3) != jitter(1, 3) {
		t.Error("seed 0 should alias the default seed 1")
	}
}
