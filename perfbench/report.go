package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metric is one reported number with its unit and the number of
// samples behind it.
type metric struct {
	value  float64
	unit   string
	n      int
	absent bool
}

// report collects one run's metrics, its self-description and the
// outcome of its correctness checks.
type report struct {
	metrics   map[string]metric
	info      []string
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; a value that could not be measured (NaN) is
// listed as absent and reported as 0.
func (r *report) set(name string, v float64, n int) {
	m := metric{value: v, unit: unitOf(name), n: n}
	if math.IsNaN(v) {
		m.value, m.absent = 0, true
	}
	r.metrics[name] = m
}

// pct records a percentile of d, with its sample count.
func (r *report) pct(name string, d dist, p float64) {
	r.set(name, d.quantile(p), len(d))
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// check records a failed correctness check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// count adds operation outcomes to the run's totals; the first few
// failures are kept as problems.
func (r *report) count(rs []*result, user func(kind string) bool) {
	for _, x := range rs {
		if !user(x.op.kind) {
			if x.err != nil {
				r.check(false, "%s: %v", x.op.kind, x.err)
			}
			continue
		}
		r.attempted++
		if x.err != nil {
			r.failed++
			if len(r.problems) < 10 {
				r.check(false, "%s: %v", x.op.kind, x.err)
			}
		}
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// write prints the human-readable lines (self-description, then every
// metric with unit and sample count) and, last, the one-line JSON
// result restricted to the names in want.
func (r *report) write(w io.Writer, want []named) {
	for _, l := range r.info {
		fmt.Fprintf(w, "# %s\n", l)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	var absent []string
	out := map[string]any{}
	for _, nm := range want {
		name := nm.name
		m, ok := r.metrics[name]
		if !ok || m.absent {
			m = metric{unit: nm.unit}
			absent = append(absent, name)
		}
		v := m.value
		if math.IsInf(v, 1) {
			// A percentile that lands on a failure: the run is incorrect
			// anyway; report the largest finite number instead of +Inf.
			v = math.MaxFloat64
		}
		fmt.Fprintf(w, "%-44s %16.6f %-6s n=%d\n", name, v, m.unit, m.n)
		out[name] = map[string]any{"value": v, "unit": m.unit}
	}
	if len(absent) > 0 {
		fmt.Fprintf(w, "# not measured on this workload (reported as 0): %s\n", strings.Join(absent, " "))
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintln(w, string(line))
}
