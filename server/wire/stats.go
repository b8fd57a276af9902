package wire

import (
	"maps"
	"slices"
	"strconv"

	"hotnoc"
	"hotnoc/obs"
)

// column is one numeric field of a /v1/stats row, named by its JSON key.
// Counters are monotonic within one daemon process; gauges describe the
// present.
type column[R any] struct {
	name string
	typ  obs.MetricType
	get  func(*R) float64
	set  func(*R, float64)
}

func col[R any, T int | int64 | uint64](name string, typ obs.MetricType, field func(*R) *T) column[R] {
	return column[R]{name, typ,
		func(r *R) float64 { return float64(*field(r)) },
		func(r *R, v float64) { *field(r) = T(v) }}
}

// labColumns and tenantColumns are the one mapping from the LabStats and
// TenantStats fields to the series fleet aggregation sums and ledgers.
// A tenant's weight is configuration, not a series: see Stats.SetRows.
var (
	labColumns = []column[hotnoc.LabStats]{
		col("workers", obs.TypeGauge, func(s *hotnoc.LabStats) *int { return &s.Workers }),
		col("busy_workers", obs.TypeGauge, func(s *hotnoc.LabStats) *int { return &s.BusyWorkers }),
		col("decodes", obs.TypeCounter, func(s *hotnoc.LabStats) *uint64 { return &s.Decodes }),
		col("cache_hits", obs.TypeCounter, func(s *hotnoc.LabStats) *uint64 { return &s.CacheHits }),
		col("cache_misses", obs.TypeCounter, func(s *hotnoc.LabStats) *uint64 { return &s.CacheMisses }),
		col("build_hits", obs.TypeCounter, func(s *hotnoc.LabStats) *uint64 { return &s.BuildHits }),
		col("build_misses", obs.TypeCounter, func(s *hotnoc.LabStats) *uint64 { return &s.BuildMisses }),
	}
	tenantColumns = []column[TenantStats]{
		col("running", obs.TypeGauge, func(s *TenantStats) *int { return &s.Running }),
		col("queued", obs.TypeGauge, func(s *TenantStats) *int { return &s.Queued }),
		col("done", obs.TypeCounter, func(s *TenantStats) *int { return &s.Done }),
		col("failed", obs.TypeCounter, func(s *TenantStats) *int { return &s.Failed }),
		col("canceled", obs.TypeCounter, func(s *TenantStats) *int { return &s.Canceled }),
		col("rejected", obs.TypeCounter, func(s *TenantStats) *int { return &s.Rejected }),
		col("points", obs.TypeCounter, func(s *TenantStats) *int64 { return &s.Points }),
	}
)

func appendRow[R any](out []obs.Sample, cols []column[R], row *R, key obs.Labels) []obs.Sample {
	for _, c := range cols {
		out = append(out, obs.Sample{Name: c.name, Type: c.typ, Labels: key, Value: c.get(row)})
	}
	return out
}

func setColumn[R any](cols []column[R], row *R, s obs.Sample) {
	for _, c := range cols {
		if c.name == s.Name {
			c.set(row, s.Value)
		}
	}
}

// Samples flattens the Labs and Tenants rows into one sample per numeric
// field: named by the field's JSON key, labeled with the row's scale or
// tenant id.
//
//hotnoc:deterministic
func (st Stats) Samples() []obs.Sample {
	var out []obs.Sample
	for i := range st.Labs {
		out = appendRow(out, labColumns, &st.Labs[i], obs.Labels{"scale": strconv.Itoa(st.Labs[i].Scale)})
	}
	for i := range st.Tenants {
		out = appendRow(out, tenantColumns, &st.Tenants[i], obs.Labels{"tenant": st.Tenants[i].ID})
	}
	return out
}

// SetRows replaces the Labs and Tenants rows with those samples describe
// (the inverse of Samples), ordered by scale and by tenant id. Each
// tenant row takes its weight from weights.
//
//hotnoc:deterministic
func (st *Stats) SetRows(samples []obs.Sample, weights map[string]int) {
	labs := map[int]*hotnoc.LabStats{}
	tenants := map[string]*TenantStats{}
	for _, s := range samples {
		if id, ok := s.Labels["tenant"]; ok {
			row, ok := tenants[id]
			if !ok {
				row = &TenantStats{ID: id, Weight: weights[id]}
				tenants[id] = row
			}
			setColumn(tenantColumns, row, s)
		} else if scale, err := strconv.Atoi(s.Labels["scale"]); err == nil {
			row, ok := labs[scale]
			if !ok {
				row = &hotnoc.LabStats{Scale: scale}
				labs[scale] = row
			}
			setColumn(labColumns, row, s)
		}
	}
	st.Labs = make([]hotnoc.LabStats, 0, len(labs))
	for _, scale := range slices.Sorted(maps.Keys(labs)) {
		st.Labs = append(st.Labs, *labs[scale])
	}
	st.Tenants = make([]TenantStats, 0, len(tenants))
	for _, id := range slices.Sorted(maps.Keys(tenants)) {
		st.Tenants = append(st.Tenants, *tenants[id])
	}
}

// Add sums o's Labs and Tenants rows into st's, row by row. Where both
// carry a tenant, st's weight stands.
//
//hotnoc:deterministic
func (st *Stats) Add(o Stats) {
	weights := map[string]int{}
	for _, rows := range [][]TenantStats{o.Tenants, st.Tenants} {
		for _, t := range rows {
			weights[t.ID] = t.Weight
		}
	}
	st.SetRows(obs.Sum(append(st.Samples(), o.Samples()...), "scale", "tenant"), weights)
}
