package scenario

import (
	"fmt"
	"slices"
	"sort"
)

// Merge recombines partial tables into the full run output. The merge is
// pure and order-independent: partials may arrive in any order (shards
// complete whenever they complete), rows land by (point ordinal, row
// sequence), and the result is byte-identical to an unsharded Run of the
// same spec and config. Every point of the space must appear in exactly
// one partial; duplicates, gaps, and schema mismatches are errors.
func (s *Space) Merge(partials []*Partial) (*Table, error) {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("scenario %q: merge: %s", s.spec.Name, fmt.Sprintf(format, args...))
	}
	columns := s.finalColumns()
	count := make([]int, len(s.points))
	type taggedRow struct {
		tag   RowTag
		cells []string
	}
	var rows []taggedRow
	for pi, p := range partials {
		if p == nil {
			return nil, fail("partial %d is nil", pi)
		}
		if p.Scenario != s.spec.Name {
			return nil, fail("partial %d is from scenario %q", pi, p.Scenario)
		}
		if p.Config != s.cfg {
			return nil, fail("partial %d was executed under different settings (%+v, merging under %+v)",
				pi, p.Config, s.cfg)
		}
		if p.Table == nil {
			return nil, fail("partial %d has no table", pi)
		}
		if !slices.Equal(p.Table.Columns, columns) {
			return nil, fail("partial %d columns %v do not match %v", pi, p.Table.Columns, columns)
		}
		if len(p.Tags) != len(p.Table.Rows) {
			return nil, fail("partial %d has %d tags for %d rows", pi, len(p.Tags), len(p.Table.Rows))
		}
		executed := make(map[int]bool, len(p.Points))
		for _, ord := range p.Points {
			if ord < 0 || ord >= len(s.points) {
				return nil, fail("partial %d executed point %d of a %d-point space", pi, ord, len(s.points))
			}
			count[ord]++
			executed[ord] = true
		}
		for ri, tag := range p.Tags {
			if !executed[tag.Point] {
				return nil, fail("partial %d row %d is tagged with point %d it does not claim", pi, ri, tag.Point)
			}
			if len(p.Table.Rows[ri]) != len(columns) {
				return nil, fail("partial %d row %d has %d cells for %d columns", pi, ri, len(p.Table.Rows[ri]), len(columns))
			}
			rows = append(rows, taggedRow{tag: tag, cells: p.Table.Rows[ri]})
		}
	}
	for ord, c := range count {
		switch {
		case c == 0:
			return nil, fail("point %d (%s) missing from every partial", ord, s.points[ord].Label)
		case c > 1:
			return nil, fail("point %d (%s) executed %d times", ord, s.points[ord].Label, c)
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].tag.Point != rows[b].tag.Point {
			return rows[a].tag.Point < rows[b].tag.Point
		}
		return rows[a].tag.Seq < rows[b].tag.Seq
	})
	for i := 1; i < len(rows); i++ {
		if rows[i].tag == rows[i-1].tag {
			return nil, fail("row (point %d, seq %d) appears twice", rows[i].tag.Point, rows[i].tag.Seq)
		}
	}
	tb := &Table{
		ID:      s.spec.Name,
		Title:   s.spec.Title,
		Notes:   s.spec.Notes,
		Columns: append([]string(nil), columns...),
	}
	for _, r := range rows {
		tb.Rows = append(tb.Rows, r.cells)
	}
	return tb, nil
}

// Merge enumerates the spec's point-space and merges the partials
// against it — the offline counterpart of Space.Merge for callers that
// hold only the spec (quorumbench -merge, fleet coordinators restarted
// between dispatch and collection).
func Merge(spec *Spec, cfg RunConfig, partials []*Partial) (*Table, error) {
	space, err := NewSpace(spec, cfg)
	if err != nil {
		return nil, err
	}
	return space.Merge(partials)
}
