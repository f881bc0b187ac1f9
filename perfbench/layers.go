package main

import (
	"sort"
	"strconv"
	"time"

	"mighash/internal/obs"
)

// interval is a half-open time span [from, to).
type interval struct{ from, to time.Time }

func spanInterval(s *obs.Span) interval {
	return interval{s.StartTime(), s.StartTime().Add(s.Duration())}
}

// unionLength returns the total length covered by ivs, counting overlaps
// once.
func unionLength(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from.Before(ivs[j].from) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.from.After(cur.to):
			total += cur.to.Sub(cur.from)
			cur = iv
		case iv.to.After(cur.to):
			cur.to = iv.to
		}
	}
	if len(ivs) > 0 {
		total += cur.to.Sub(cur.from)
	}
	return total
}

// selfSeconds sums, per span name in names, the self time of every span
// of that name: its duration minus the part of it its child spans cover
// (children that overlap each other count once). Concurrent spans of one
// name add up, so on a worker pool the sum is busy time, not wall time.
func selfSeconds(spans []*obs.Span, names ...string) map[string]float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent() != 0 {
			children[s.Parent()] = append(children[s.Parent()], spanInterval(s))
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if want[s.Name()] {
			out[s.Name()] += (s.Duration() - unionLength(children[s.ID()])).Seconds()
		}
	}
	return out
}

// durations returns the durations of every span called name.
func durations(spans []*obs.Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name() == name {
			out = append(out, s.Duration())
		}
	}
	return out
}

// sumSeconds adds up ds in seconds.
func sumSeconds(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

// sumIntAttr adds up the integer attribute key over the spans called name.
func sumIntAttr(spans []*obs.Span, name, key string) float64 {
	var total int64
	for _, s := range spans {
		if s.Name() == name {
			if v, err := strconv.ParseInt(s.Attr(key), 10, 64); err == nil {
				total += v
			}
		}
	}
	return float64(total)
}

// passWallShares splits the wall-clock window w among the "pass" spans
// open in it: every instant is shared equally by the passes running at
// that instant, so the shares of all passes plus the time no pass runs
// (outside) add up to the window. This is the self time of a pass on a
// timeline where two workers run passes side by side.
func passWallShares(spans []*obs.Span, w interval) (shares map[string]float64, outside float64) {
	type event struct {
		at    time.Time
		delta int
		name  string
	}
	var events []event
	var ivs []interval
	for _, s := range spans {
		if s.Name() != "pass" {
			continue
		}
		iv := spanInterval(s)
		if iv.from.Before(w.from) {
			iv.from = w.from
		}
		if iv.to.After(w.to) {
			iv.to = w.to
		}
		if !iv.to.After(iv.from) {
			continue
		}
		ivs = append(ivs, iv)
		events = append(events, event{iv.from, +1, s.Attr("name")}, event{iv.to, -1, s.Attr("name")})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at.Before(events[j].at) })
	shares = map[string]float64{}
	open := map[string]int{}
	n := 0
	for i, e := range events {
		if i > 0 && n > 0 {
			seg := e.at.Sub(events[i-1].at).Seconds()
			for name, k := range open {
				shares[name] += seg * float64(k) / float64(n)
			}
		}
		open[e.name] += e.delta
		if open[e.name] == 0 {
			delete(open, e.name)
		}
		n += e.delta
	}
	outside = (w.to.Sub(w.from) - unionLength(ivs)).Seconds()
	return shares, outside
}
