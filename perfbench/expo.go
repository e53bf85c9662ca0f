package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// key identifies a series: its name and its labels in sorted order.
func (s sample) key() string {
	names := make([]string, 0, len(s.labels))
	for n := range s.labels {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(s.name)
	for _, n := range names {
		fmt.Fprintf(&b, "|%s=%s", n, s.labels[n])
	}
	return b.String()
}

// scrape is one parsed GET /metrics body.
type scrape []sample

// parseExposition reads the Prometheus text format: comment lines are
// skipped, every other line is `name{k="v",...} value`.
func parseExposition(text string) (scrape, error) {
	var out scrape
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("exposition: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition: bad value in %q: %v", line, err)
		}
		s := sample{labels: map[string]string{}, value: v}
		head := line[:sp]
		if i := strings.IndexByte(head, '{'); i >= 0 {
			if !strings.HasSuffix(head, "}") {
				return nil, fmt.Errorf("exposition: unterminated labels in %q", line)
			}
			s.name = head[:i]
			if err := parseLabels(head[i+1:len(head)-1], s.labels); err != nil {
				return nil, fmt.Errorf("exposition: %v in %q", err, line)
			}
		} else {
			s.name = head
		}
		out = append(out, s)
	}
	return out, nil
}

// parseLabels reads `k="v",k2="v2"` with the format's backslash escapes.
func parseLabels(s string, into map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return fmt.Errorf("bad label pair")
		}
		name := s[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return fmt.Errorf("unterminated label value")
		}
		into[name] = val.String()
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return nil
}

// delta subtracts before from after series by series: the counters and
// histograms of a window. A series missing from before counts from zero.
func delta(before, after scrape) scrape {
	prev := make(map[string]float64, len(before))
	for _, s := range before {
		prev[s.key()] = s.value
	}
	out := make(scrape, len(after))
	for i, s := range after {
		s.value -= prev[s.key()]
		out[i] = s
	}
	return out
}

// has reports whether the family appears at all, under its own name or
// as a histogram's _bucket/_sum/_count series.
func (sc scrape) has(family string) bool {
	for _, s := range sc {
		if s.name == family || strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s.name, "_bucket"), "_sum"), "_count") == family {
			return true
		}
	}
	return false
}

// matches reports whether s carries every label of want.
func matches(s sample, want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds the values of the series named name that carry want's labels.
func (sc scrape) sum(name string, want map[string]string) float64 {
	t := 0.0
	for _, s := range sc {
		if s.name == name && matches(s, want) {
			t += s.value
		}
	}
	return t
}

// histMean is a histogram family's mean observation over the matching
// series (NaN when nothing was observed).
func (sc scrape) histMean(family string, want map[string]string) float64 {
	n := sc.sum(family+"_count", want)
	if n == 0 {
		return math.NaN()
	}
	return sc.sum(family+"_sum", want) / n
}

// histQuantile estimates the q-quantile of a histogram family, summed
// over the matching series, by linear interpolation inside the bucket
// the quantile falls in (the histogram_quantile rule). A quantile in the
// +Inf bucket reports the largest finite bound. NaN when empty.
func (sc scrape) histQuantile(family string, want map[string]string, q float64) float64 {
	cum := map[float64]float64{}
	for _, s := range sc {
		if s.name != family+"_bucket" || !matches(s, want) {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		cum[le] += s.value
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return math.NaN()
	}
	total := cum[bounds[len(bounds)-1]]
	rank := q * total
	lower, below := 0.0, 0.0
	for _, b := range bounds {
		if cum[b] >= rank {
			if math.IsInf(b, 1) {
				return lower
			}
			in := cum[b] - below
			if in == 0 {
				return b
			}
			return lower + (b-lower)*(rank-below)/in
		}
		lower, below = b, cum[b]
	}
	return lower
}
