package catalog

// Statistics helpers that resolve through the schema. Foreign-key columns
// inherit their domain and distinct-value count from the referenced primary
// key, so the lookups live on Schema rather than Column.

// ColumnNDV returns the distinct-value count of the qualified column at the
// schema's scale factor. FK columns take min(own rows, referenced NDV).
// It returns 0 for unknown columns.
func (s *Schema) ColumnNDV(qualified string) int64 {
	c := s.Column(qualified)
	if c == nil {
		return 0
	}
	t := s.tables[c.Table]
	rows := t.Rows(s.SF)
	if c.Kind == KindFK {
		ref := s.Column(c.Ref)
		if ref == nil {
			return 1
		}
		refNDV := ref.NDV(s.tables[ref.Table].Rows(s.SF))
		if refNDV < rows {
			return refNDV
		}
		return rows
	}
	return c.NDV(rows)
}

// ColumnDomain returns the half-open value domain [lo, hi) of the qualified
// column: dictionary codes for attributes, key ranges for PK/FK columns.
// The synthetic data generator draws values from exactly this domain, so the
// optimizer's uniform-domain selectivity estimates line up with the data.
func (s *Schema) ColumnDomain(qualified string) (lo, hi int64) {
	c := s.Column(qualified)
	if c == nil {
		return 0, 1
	}
	t := s.tables[c.Table]
	switch c.Kind {
	case KindPK:
		return 0, t.Rows(s.SF)
	case KindFK:
		ref := s.Column(c.Ref)
		if ref == nil {
			return 0, 1
		}
		return s.ColumnDomain(c.Ref)
	default:
		return 0, c.NDV(t.Rows(s.SF))
	}
}

// ColumnCorr returns the physical correlation of the qualified column:
// the declared Corr for attributes and FKs, 1 for primary keys (dense
// sequential storage), 0 for unknown columns.
func (s *Schema) ColumnCorr(qualified string) float64 {
	c := s.Column(qualified)
	if c == nil {
		return 0
	}
	if c.Kind == KindPK {
		return 1
	}
	return c.Corr
}
