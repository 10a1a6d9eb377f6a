package scenario

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Table is the result of a scenario run (and of the figure regenerations
// built on it): rows of formatted cells under named columns.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records shape claims (e.g. what the paper says about the
	// figure) printed after the table.
	Notes []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("scenario: row has %d cells, table %s has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Format writes the table as aligned text.
func (t *Table) Format(w io.Writer) error {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

// FormatMarkdown writes the table as GitHub-flavored markdown.
func (t *Table) FormatMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "- %s\n", n)
	}
	fmt.Fprintln(w)
	return nil
}

// WriteCSV writes the table as RFC-4180 CSV: a header of the column
// names, then the rows, in table order. Notes and the title are not
// part of the CSV surface — the cells are the machine-readable payload.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// tableJSON is the stable wire shape of a Table. Columns and rows are
// arrays, so column order survives the round trip — the property the
// fleet protocol and the partition-merge invariants rely on.
type tableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// MarshalJSON encodes the table with a stable column order.
func (t *Table) MarshalJSON() ([]byte, error) {
	tj := tableJSON{ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes}
	if tj.Columns == nil {
		tj.Columns = []string{}
	}
	if tj.Rows == nil {
		tj.Rows = [][]string{}
	}
	return json.Marshal(tj)
}

// UnmarshalJSON decodes a table, rejecting rows whose cell count does
// not match the columns.
func (t *Table) UnmarshalJSON(data []byte) error {
	var tj tableJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return err
	}
	for i, row := range tj.Rows {
		if len(row) != len(tj.Columns) {
			return fmt.Errorf("scenario: table %s row %d has %d cells for %d columns",
				tj.ID, i, len(row), len(tj.Columns))
		}
	}
	t.ID, t.Title, t.Columns, t.Rows, t.Notes = tj.ID, tj.Title, tj.Columns, tj.Rows, tj.Notes
	return nil
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func itoa(v int) string   { return strconv.Itoa(v) }
