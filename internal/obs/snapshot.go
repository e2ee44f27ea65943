package obs

import (
	"encoding/json"
	"io"
)

// MetricJSON is one metric (or one labeled child) in the JSON snapshot.
type MetricJSON struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`

	// Counters and gauges.
	Value *float64 `json:"value,omitempty"`

	// Histograms.
	Count     *uint64            `json:"count,omitempty"`
	Sum       *float64           `json:"sum,omitempty"`
	Buckets   []BucketJSON       `json:"buckets,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// BucketJSON is one cumulative histogram bucket ("+Inf" has UpperBound
// omitted and Inf set).
type BucketJSON struct {
	UpperBound float64 `json:"le"`
	Inf        bool    `json:"inf,omitempty"`
	Count      uint64  `json:"count"`
}

func floatPtr(v float64) *float64 { return &v }
func uintPtr(v uint64) *uint64    { return &v }

func histJSON(base MetricJSON, h *Histogram) MetricJSON {
	counts := h.snapshotBuckets()
	var cum uint64
	buckets := make([]BucketJSON, 0, len(counts))
	for i, c := range counts {
		cum += c
		b := BucketJSON{Count: cum}
		if i < len(counts)-1 {
			b.UpperBound = h.scale(h.upperBound(i))
		} else {
			b.Inf = true
		}
		buckets = append(buckets, b)
	}
	base.Count = uintPtr(h.Count())
	base.Sum = floatPtr(h.scale(float64(h.Sum())))
	base.Buckets = buckets
	base.Quantiles = map[string]float64{
		"p50": h.Quantile(0.50),
		"p90": h.Quantile(0.90),
		"p99": h.Quantile(0.99),
	}
	return base
}

func labelMap(labels, values []string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for i, l := range labels {
		m[l] = values[i]
	}
	return m
}

// Snapshot returns every metric (vec children flattened, one entry per
// labeled series) as JSON-ready structs, sorted by name then label values.
func (r *Registry) Snapshot() []MetricJSON {
	var out []MetricJSON
	for _, m := range r.sorted() {
		base := MetricJSON{Name: m.name, Type: m.kind.String(), Help: m.help}
		switch m.kind {
		case kindCounter:
			base.Value = floatPtr(float64(m.counter.Value()))
			out = append(out, base)
		case kindGauge:
			base.Value = floatPtr(float64(m.gauge.Value()))
			out = append(out, base)
		case kindGaugeFunc:
			base.Value = floatPtr(m.gfunc())
			out = append(out, base)
		case kindHistogram:
			out = append(out, histJSON(base, m.hist))
		case kindCounterVec:
			for _, c := range m.vec.sortedChildren() {
				e := base
				e.Labels = labelMap(m.vec.labels, c.values)
				e.Value = floatPtr(float64(c.counter.Value()))
				out = append(out, e)
			}
		case kindGaugeVec:
			for _, c := range m.vec.sortedChildren() {
				e := base
				e.Labels = labelMap(m.vec.labels, c.values)
				e.Value = floatPtr(float64(c.gauge.Value()))
				out = append(out, e)
			}
		case kindHistogramVec:
			for _, c := range m.vec.sortedChildren() {
				e := base
				e.Labels = labelMap(m.vec.labels, c.values)
				out = append(out, histJSON(e, c.hist))
			}
		}
	}
	return out
}

// WriteJSON writes the snapshot as an indented JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
