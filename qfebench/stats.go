package main

import (
	"math"
	"sort"
	"strings"

	"qfe/internal/obs"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail read from fewer samples moves between identical runs.
const minBeyond = 10

// tailOK reports whether n samples leave at least minBeyond samples beyond
// the p-th percentile (p in 1..99): n·(100−p) ≥ 100·minBeyond, in integers.
func tailOK(n, p int) bool { return n*(100-p) >= 100*minBeyond }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, and whether the sample count supports it (tailOK).
// xs is not modified. An empty input yields (0, false).
func percentile(xs []float64, p int) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(p) / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	return v, tailOK(len(s), p)
}

// median is the 50th percentile without the sample-count rule: a median is
// always reported, with its count beside it.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio divides, reading 0 when the base is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshot indexes one obs registry snapshot (in process, or the JSON of
// GET /metrics?format=json) by series key: name{label=value,...}.
type snapshot map[string]obs.MetricJSON

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func indexSnapshot(ms []obs.MetricJSON) snapshot {
	s := make(snapshot, len(ms))
	for _, m := range ms {
		s[seriesKey(m.Name, m.Labels)] = m
	}
	return s
}

// valueDelta is the change of a counter (or gauge) series between two
// snapshots. A series absent from before counts from 0; absent from after
// reads 0 (no such instrument in that process).
func valueDelta(before, after snapshot, key string) float64 {
	a, ok := after[key]
	if !ok || a.Value == nil {
		return 0
	}
	v := *a.Value
	if b, ok := before[key]; ok && b.Value != nil {
		v -= *b.Value
	}
	return v
}

// histDelta is the change of one log₂ histogram between two snapshots: how
// many observations were made in between and their sum, in the
// instrument's exposed unit (seconds for latencies).
type histDelta struct {
	Count uint64
	Sum   float64
}

func histogramDelta(before, after snapshot, key string) histDelta {
	a, ok := after[key]
	if !ok || a.Count == nil {
		return histDelta{}
	}
	d := histDelta{Count: *a.Count, Sum: *a.Sum}
	if b, ok := before[key]; ok && b.Count != nil {
		d.Count -= *b.Count
		d.Sum -= *b.Sum
	}
	return d
}

// add merges another delta of the same instrument (another process).
func (h histDelta) add(o histDelta) histDelta {
	return histDelta{Count: h.Count + o.Count, Sum: h.Sum + o.Sum}
}

// mean is the average observation, 0 when nothing was observed.
func (h histDelta) mean() float64 { return ratio(h.Sum, float64(h.Count)) }

// interval is a closed-open time range in nanoseconds.
type interval struct{ Start, End int64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children are clipped to the parent, and where children overlap
// (concurrent work) the overlap is counted once.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// part is one layer's share of a measured total.
type part struct {
	Layer string
	Ms    float64
	Share float64
}

// ledger splits a measured total (ms) across layers. The remainder the
// layers do not explain is kept as an explicit "unattributed" row — negative
// when the layers over-explain the total — so the shares always sum to 1.
func ledger(totalMs float64, layers []part) []part {
	out := make([]part, 0, len(layers)+1)
	rest := totalMs
	for _, l := range layers {
		l.Share = ratio(l.Ms, totalMs)
		rest -= l.Ms
		out = append(out, l)
	}
	return append(out, part{Layer: "unattributed", Ms: rest, Share: ratio(rest, totalMs)})
}
