package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// escapeHelp escapes a HELP string per the Prometheus text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// fmtFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, "+Inf" for infinity.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for a child's label values (empty string
// for no labels, so unlabeled series need no special case at call sites).
func labelString(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// writeHistogram renders one histogram series set (cumulative _bucket lines
// with le=, then _sum and _count). extraLabels/extraValues carry the vec
// labels, if any; they precede le in each bucket line.
func writeHistogram(w io.Writer, name string, h *Histogram, labels, values []string) {
	counts := h.snapshotBuckets()
	var cum uint64
	prefix := ""
	if len(labels) > 0 {
		var b strings.Builder
		for i, l := range labels {
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteString(`",`)
		}
		prefix = b.String()
	}
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(counts)-1 {
			le = fmtFloat(h.scale(h.upperBound(i)))
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, prefix, le, cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(labels, values), fmtFloat(h.scale(float64(h.Sum()))))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels, values), h.Count())
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), metrics sorted by name, vec children sorted by
// label values.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, m := range r.sorted() {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case kindGauge:
			fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		case kindGaugeFunc:
			fmt.Fprintf(w, "%s %s\n", m.name, fmtFloat(m.gfunc()))
		case kindHistogram:
			writeHistogram(w, m.name, m.hist, nil, nil)
		case kindCounterVec:
			for _, c := range m.vec.sortedChildren() {
				fmt.Fprintf(w, "%s%s %d\n", m.name, labelString(m.vec.labels, c.values), c.counter.Value())
			}
		case kindGaugeVec:
			for _, c := range m.vec.sortedChildren() {
				fmt.Fprintf(w, "%s%s %d\n", m.name, labelString(m.vec.labels, c.values), c.gauge.Value())
			}
		case kindHistogramVec:
			for _, c := range m.vec.sortedChildren() {
				writeHistogram(w, m.name, c.hist, m.vec.labels, c.values)
			}
		}
	}
}

// Handler serves the registry: Prometheus text format by default, the JSON
// snapshot with ?format=json. Mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Handler serves the Default registry (see Registry.Handler).
func Handler() http.Handler { return Default().Handler() }
