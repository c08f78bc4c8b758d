package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans nest: a span's self time is its duration minus the time its
// child spans cover. Only per-name count, total and self time are kept.
type tracer struct {
	base  time.Time
	names []string
	ids   map[string]int
	count []int64
	total []time.Duration
	self  []time.Duration
	stack []frame
}

type frame struct {
	id       int
	start    time.Duration
	children time.Duration
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ids: make(map[string]int)}
}

// id returns the span id for a name, registering it on first use. Hot
// loops resolve their ids once and call begin with them.
func (t *tracer) id(name string) int {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := len(t.names)
	t.ids[name] = id
	t.names = append(t.names, name)
	t.count = append(t.count, 0)
	t.total = append(t.total, 0)
	t.self = append(t.self, 0)
	return id
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(id int) {
	t.stack = append(t.stack, frame{id: id, start: time.Since(t.base)})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	now := time.Since(t.base)
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	t.count[f.id]++
	t.total[f.id] += d
	t.self[f.id] += d - f.children
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += d
	}
	return d
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	t.begin(t.id(name))
	fn()
	return t.end()
}

// spanned runs fn inside a span when tracing, and plainly otherwise.
func spanned(tr *tracer, name string, fn func()) {
	if tr == nil {
		fn()
		return
	}
	tr.do(name, fn)
}

// meanMs is the mean duration of the named span in milliseconds (0 if
// it never ran).
func (t *tracer) meanMs(name string) float64 {
	id, ok := t.ids[name]
	if !ok || t.count[id] == 0 {
		return 0
	}
	return t.total[id].Seconds() * 1e3 / float64(t.count[id])
}

// totalOf is the summed duration of the named span.
func (t *tracer) totalOf(name string) time.Duration {
	if id, ok := t.ids[name]; ok {
		return t.total[id]
	}
	return 0
}

// summary prints each span name's count, total and self time, largest
// self time first.
func (t *tracer) summary(w io.Writer) {
	order := make([]int, len(t.names))
	var all time.Duration
	for i := range order {
		order[i] = i
		all += t.self[i]
	}
	sort.Slice(order, func(a, b int) bool { return t.self[order[a]] > t.self[order[b]] })
	fmt.Fprintf(w, "%-24s %10s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, i := range order {
		share := 0.0
		if all > 0 {
			share = 100 * t.self[i].Seconds() / all.Seconds()
		}
		fmt.Fprintf(w, "%-24s %10d %12.3f %12.3f %6.1f%%\n", t.names[i], t.count[i],
			t.total[i].Seconds()*1e3, t.self[i].Seconds()*1e3, share)
	}
}
