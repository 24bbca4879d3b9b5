package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed /metrics body.
type scrape []sample

// parseProm parses the Prometheus text format the daemons emit: comment
// lines are skipped, every other line is `name[{k="v",...}] value`.
func parseProm(text string) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		s := sample{name: line[:cut], value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", n, line)
			}
			labels, err := parseLabels(s.name[open+1 : len(s.name)-1])
			if err != nil {
				return nil, fmt.Errorf("metrics line %d: %w", n, err)
			}
			s.name, s.labels = s.name[:open], labels
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels parses `k="v",k2="v2"` with Go-quoted values.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without value: %q", s)
		}
		key := s[:eq]
		val, err := strconv.QuotedPrefix(s[eq+1:])
		if err != nil {
			return nil, fmt.Errorf("label %s: %w", key, err)
		}
		out[key], _ = strconv.Unquote(val)
		s = strings.TrimPrefix(s[eq+1+len(val):], ",")
	}
	return out, nil
}

// get sums the series named name whose labels include every kv pair
// (alternating keys and values); 0 when none match.
func (sc scrape) get(name string, kv ...string) float64 {
	var sum float64
	for _, s := range sc {
		if s.name != name || !s.match(kv) {
			continue
		}
		sum += s.value
	}
	return sum
}

func (s sample) match(kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if s.labels[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

// histDelta is one histogram series' growth between two scrapes: the
// seconds observed and the observation count.
func histDelta(before, after scrape, family string, kv ...string) (sumSec, count float64) {
	sumSec = after.get(family+"_sum", kv...) - before.get(family+"_sum", kv...)
	count = after.get(family+"_count", kv...) - before.get(family+"_count", kv...)
	return sumSec, count
}

// delta is a counter's growth between two scrapes.
func delta(before, after scrape, name string, kv ...string) float64 {
	return after.get(name, kv...) - before.get(name, kv...)
}
