package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func quickParams() Params {
	p := DefaultParams()
	p.Quick = true
	p.QUDurationMS = 2000
	p.QURuns = 1
	return p
}

// TestAllExperimentsRunQuick smoke-tests every figure runner at reduced
// scale and validates table structure.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			tb, err := exp.Run(quickParams())
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table", exp.ID)
			}
			for i, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Errorf("%s row %d: %d cells for %d columns", exp.ID, i, len(row), len(tb.Columns))
				}
			}
			var buf bytes.Buffer
			if err := tb.Format(&buf); err != nil {
				t.Fatalf("Format: %v", err)
			}
			if !strings.Contains(buf.String(), exp.ID) {
				t.Error("formatted output missing figure id")
			}
			buf.Reset()
			if err := tb.FormatMarkdown(&buf); err != nil {
				t.Fatalf("FormatMarkdown: %v", err)
			}
			if !strings.Contains(buf.String(), "|") {
				t.Error("markdown output has no table")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if got := len(All()); got != 10 {
		t.Errorf("All() = %d figures, want 10", got)
	}
	if _, err := ByID("fig6.3"); err != nil {
		t.Errorf("ByID(fig6.3): %v", err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("ByID(fig99) succeeded")
	}
}

func TestTableHelpers(t *testing.T) {
	tb := &Table{ID: "x", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2.5")
	if v, err := tb.Cell(0, 1); err != nil || v != 2.5 {
		t.Errorf("Cell = %v, %v", v, err)
	}
	if _, err := tb.Cell(1, 0); err == nil {
		t.Error("out-of-range Cell succeeded")
	}
	if i, err := tb.Col("b"); err != nil || i != 1 {
		t.Errorf("Col(b) = %d, %v", i, err)
	}
	if _, err := tb.Col("z"); err == nil {
		t.Error("Col(z) succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddRow with wrong arity did not panic")
		}
	}()
	tb.AddRow("only-one")
}

// runFigure runs a figure through ByID, the way the CLI does.
func runFigure(t *testing.T, id string, p Params) *Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestFig63SingletonIsLowest: on the quick run, the singleton baseline
// must not be beaten by any placed quorum system (Lin's 2-approximation
// argument says nothing can do better than half; in practice singleton
// wins outright at alpha=0).
func TestFig63SingletonIsLowest(t *testing.T) {
	tb := runFigure(t, "fig6.3", quickParams())
	respCol, err := tb.Col("response_ms")
	if err != nil {
		t.Fatal(err)
	}
	single, err := tb.Cell(0, respCol)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < len(tb.Rows); r++ {
		v, err := tb.Cell(r, respCol)
		if err != nil {
			t.Fatal(err)
		}
		if v < single-1e-9 {
			t.Errorf("row %d response %v beats singleton %v", r, v, single)
		}
	}
}

// TestFig65BalancedResponseDecreases: the headline shape of Figure 6.5 —
// with demand 16000, the balanced strategy's response time falls as the
// universe grows (more servers share the load).
func TestFig65BalancedResponseDecreases(t *testing.T) {
	p := quickParams()
	p.Quick = false // need several universe sizes; this runner is cheap
	tb := runFigure(t, "fig6.5", p)
	col, err := tb.Col("resp_balanced")
	if err != nil {
		t.Fatal(err)
	}
	first, err := tb.Cell(0, col)
	if err != nil {
		t.Fatal(err)
	}
	last, err := tb.Cell(len(tb.Rows)-1, col)
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Errorf("balanced response did not decrease: first %v, last %v", first, last)
	}
}

// TestAblationsRunQuick smoke-tests every ablation study at reduced scale.
func TestAblationsRunQuick(t *testing.T) {
	for _, exp := range Ablations() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			tb, err := exp.Run(quickParams())
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table", exp.ID)
			}
		})
	}
}

// TestAblDedupNeverWorse: the §8 dedup model must never increase response
// time relative to the multiplicity model at the same capacity.
func TestAblDedupNeverWorse(t *testing.T) {
	tb, err := AblDedup(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	gain, err := tb.Col("dedup_gain_ms")
	if err != nil {
		t.Fatal(err)
	}
	for r := range tb.Rows {
		v, err := tb.Cell(r, gain)
		if err != nil {
			t.Fatal(err)
		}
		if v < -1e-6 {
			t.Errorf("row %d: dedup made response worse by %v ms", r, -v)
		}
	}
}

// TestAblFailuresSingletonDies: the singleton must be 'down' after its
// single node fails, while the quorum systems keep serving.
func TestAblFailuresSingletonDies(t *testing.T) {
	tb, err := AblFailures(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	f1, err := tb.Col("resp_f1")
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Rows[0][f1]; got != "down" {
		t.Errorf("singleton after 1 failure = %q, want down", got)
	}
	for r := 1; r < len(tb.Rows); r++ {
		if tb.Rows[r][f1] == "down" {
			t.Errorf("row %d (%s) down after a single failure", r, tb.Rows[r][0])
		}
	}
}
