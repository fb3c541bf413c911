package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// CompareResult is the outcome of diffing two benchmark snapshots.
type CompareResult struct {
	Report     string
	Drift      bool // a correctness cell changed between the snapshots
	Regression bool // a shared table's elapsed_ms regressed beyond tolerance
}

// timingColumn reports whether a column holds wall-clock-derived values,
// which legitimately differ between runs. Everything else — rounds,
// weights, ratios, message counts, feasibility flags — is deterministic
// under the fixed benchmark seeds and must match exactly.
func timingColumn(tableID, header string) bool {
	// "ms" must match as a unit, not as a substring — "items" is a
	// correctness column.
	if header == "ms" || strings.HasPrefix(header, "ms(") || strings.HasPrefix(header, "ms/") ||
		strings.Contains(header, "/s") ||
		strings.Contains(header, "ns/") || strings.Contains(header, "allocs") {
		return true
	}
	// T4's "speedup" is a round-count ratio (deterministic); E2's and
	// S2's are wall-clock ratios.
	if header == "speedup" && tableID != "T4" {
		return true
	}
	// S1's admission outcomes depend on real-time load (how many arrivals
	// the open-loop schedule lands while batches are solving), not on the
	// trace seeds: load-dependent like a timing column, never exact-match.
	// The S1 assertions that ARE deterministic (bit-identity, zero errors,
	// the rejection regime) fold into its exact-matched "identical" column.
	if tableID == "S1" && (header == "ok" || header == "rejected") {
		return true
	}
	// S1's retry count is tied 1:1 to the rejection count (every client
	// retry is provoked by one 429), so it is load-dependent too.
	if tableID == "S1" && header == "retries" {
		return true
	}
	// R1's answered/cancelled split depends on real-time races between
	// the deterministic cancel schedules and solve completions. The
	// robustness assertions themselves (panic counts, quarantine,
	// 504-on-miss, bit-identity of survivors) are exact-matched via the
	// "panics" and "ok" columns.
	if tableID == "R1" && (header == "answered" || header == "cancelled") {
		return true
	}
	// S2's hit/collapse split depends on which identical requests are in
	// flight together (a collapsed follower is neither hit nor miss), so
	// the counters shift with real-time scheduling. The trace itself is
	// deterministic: requests/uniq/ok/identical stay exact-matched.
	if tableID == "S2" && (header == "hits" || header == "collapsed") {
		return true
	}
	return false
}

// memoryColumn reports whether a column holds peak-RSS values: excluded
// from the exact-match drift check (allocator and GC timing jitter the
// exact number) but gated by its own relative tolerance in Compare, so a
// memory regression fails the snapshot diff like a time regression does.
func memoryColumn(header string) bool {
	return strings.Contains(header, "RSS")
}

// Compare diffs two snapshots produced by dsfbench -json: per shared
// table, every non-timing cell must be identical (drift otherwise),
// elapsed_ms may not regress by more than tolerance percent, and memory
// columns (peak RSS) may not grow by more than memTolerance percent.
// Tables present on only one side are reported but are neither drift nor
// regression — new experiments are expected to appear over time.
func Compare(old, new []*Table, tolerance, memTolerance float64) CompareResult {
	var b strings.Builder
	res := CompareResult{}
	newByID := make(map[string]*Table, len(new))
	for _, t := range new {
		newByID[t.ID] = t
	}
	oldByID := make(map[string]*Table, len(old))
	for _, t := range old {
		oldByID[t.ID] = t
	}

	for _, ot := range old {
		nt, ok := newByID[ot.ID]
		if !ok {
			fmt.Fprintf(&b, "%-3s  only in old snapshot\n", ot.ID)
			continue
		}
		drift := compareTable(&b, ot, nt)
		if drift > 0 {
			res.Drift = true
		}
		mem := compareMemory(&b, ot, nt, memTolerance)
		delta := 0.0
		if ot.ElapsedMS > 0 {
			delta = (nt.ElapsedMS - ot.ElapsedMS) / ot.ElapsedMS * 100
		}
		status := "ok"
		if drift > 0 {
			status = fmt.Sprintf("DRIFT (%d cells)", drift)
		} else if mem > 0 {
			status = fmt.Sprintf("MEM (%d cells)", mem)
			res.Regression = true
		} else if delta > tolerance {
			status = "SLOWER"
			res.Regression = true
		}
		fmt.Fprintf(&b, "%-3s  %-18s  elapsed %8.1fms -> %8.1fms  (%+.1f%%)\n",
			ot.ID, status, ot.ElapsedMS, nt.ElapsedMS, delta)
	}
	for _, nt := range new {
		if _, ok := oldByID[nt.ID]; !ok {
			fmt.Fprintf(&b, "%-3s  new table (%s)\n", nt.ID, nt.Title)
		}
	}
	summarizeTimings(&b, old, newByID)
	res.Report = b.String()
	return res
}

// summarizeTimings prints a benchstat-style before/after digest of every
// shared timing column: the geometric mean of the per-row new/old ratios,
// as a delta percentage, so the perf trajectory of a revision is readable
// from the compare output (and from CI logs) at a glance without opening
// the snapshots. Cells that fail to parse as numbers, zero cells, and
// mismatched rows are skipped — the summary is informative, never a gate
// (drift and regression are decided by Compare's cell and elapsed checks).
func summarizeTimings(b *strings.Builder, old []*Table, newByID map[string]*Table) {
	type line struct {
		table, column string
		delta         float64 // geomean(new/old) - 1, in percent
		rows          int
	}
	var lines []line
	for _, ot := range old {
		nt, ok := newByID[ot.ID]
		if !ok || strings.Join(ot.Header, "|") != strings.Join(nt.Header, "|") ||
			len(ot.Rows) != len(nt.Rows) {
			continue
		}
		for c, h := range ot.Header {
			if !timingColumn(ot.ID, h) && !memoryColumn(h) {
				continue
			}
			logSum, rows := 0.0, 0
			for i := range ot.Rows {
				if c >= len(ot.Rows[i]) || c >= len(nt.Rows[i]) {
					continue
				}
				ov, oerr := strconv.ParseFloat(ot.Rows[i][c], 64)
				nv, nerr := strconv.ParseFloat(nt.Rows[i][c], 64)
				if oerr != nil || nerr != nil || ov <= 0 || nv <= 0 {
					continue
				}
				logSum += math.Log(nv / ov)
				rows++
			}
			if rows == 0 {
				continue
			}
			lines = append(lines, line{ot.ID, h, (math.Exp(logSum/float64(rows)) - 1) * 100, rows})
		}
	}
	if len(lines) == 0 {
		return
	}
	b.WriteString("\ntiming summary (geomean of per-row new/old, negative = faster):\n")
	for _, l := range lines {
		fmt.Fprintf(b, "  %-3s  %-22s  %+7.1f%%  (%d rows)\n", l.table, l.column, l.delta, l.rows)
	}
}

// compareMemory checks every memory column of a shared table against the
// relative tolerance and returns how many cells regressed. Cells that
// fail to parse or are non-positive on either side (a snapshot recorded
// on a platform without rusage) are skipped.
func compareMemory(b *strings.Builder, ot, nt *Table, memTolerance float64) int {
	if strings.Join(ot.Header, "|") != strings.Join(nt.Header, "|") ||
		len(ot.Rows) != len(nt.Rows) {
		return 0 // structural changes are already reported as drift
	}
	bad := 0
	for i := range ot.Rows {
		orow, nrow := ot.Rows[i], nt.Rows[i]
		for c, h := range ot.Header {
			if c >= len(orow) || c >= len(nrow) || !memoryColumn(h) {
				continue
			}
			ov, oerr := strconv.ParseFloat(orow[c], 64)
			nv, nerr := strconv.ParseFloat(nrow[c], 64)
			if oerr != nil || nerr != nil || ov <= 0 || nv <= 0 {
				continue
			}
			if nv > ov*(1+memTolerance/100) {
				bad++
				fmt.Fprintf(b, "  %s: row %d %q: %.1f -> %.1f (+%.0f%% > %.0f%%)\n",
					ot.ID, i, h, ov, nv, (nv/ov-1)*100, memTolerance)
			}
		}
	}
	return bad
}

// compareTable prints per-cell correctness differences and returns how
// many were found.
func compareTable(b *strings.Builder, ot, nt *Table) int {
	drift := 0
	mismatch := func(format string, args ...any) {
		drift++
		fmt.Fprintf(b, "  %s: ", ot.ID)
		fmt.Fprintf(b, format, args...)
		b.WriteByte('\n')
	}
	if strings.Join(ot.Header, "|") != strings.Join(nt.Header, "|") {
		mismatch("header changed: %v -> %v", ot.Header, nt.Header)
		return drift
	}
	if len(ot.Rows) != len(nt.Rows) {
		mismatch("row count %d -> %d", len(ot.Rows), len(nt.Rows))
		return drift
	}
	for i := range ot.Rows {
		orow, nrow := ot.Rows[i], nt.Rows[i]
		for c, h := range ot.Header {
			if c >= len(orow) || c >= len(nrow) || timingColumn(ot.ID, h) || memoryColumn(h) {
				continue
			}
			if orow[c] != nrow[c] {
				mismatch("row %d %q: %s -> %s", i, h, orow[c], nrow[c])
			}
		}
	}
	return drift
}
