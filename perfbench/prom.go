package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one /metrics snapshot: every sample line keyed by its series
// text exactly as exposed, e.g. `helium_requests_total{status="200"}`.
type scrape map[string]float64

// parseMetrics reads the Prometheus text exposition format.  Comment and
// blank lines are skipped; a malformed sample line is an error, so a
// format change cannot silently zero a reconciled count.
func parseMetrics(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values never contain spaces in this exposition, so the
		// value is the last space-separated field.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		s[strings.TrimSpace(line[:i])] = v
	}
	return s, sc.Err()
}

// fetchMetrics scrapes a /metrics endpoint.
func fetchMetrics(c *http.Client, url string) (scrape, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s answered %d", url, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// delta is after minus before, series by series; a series missing from
// before counts from zero.
func (after scrape) delta(before scrape) scrape {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of the metric name whose labels contain all the
// given `key="value"` pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range s {
		if !strings.HasPrefix(k, name) {
			continue
		}
		rest := k[len(name):]
		if rest != "" && rest[0] != '{' {
			continue // a longer metric name sharing the prefix
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			t += v
		}
	}
	return t
}

// histMeanMS is a histogram's mean observation in milliseconds over a
// delta (sum/count), NaN when nothing was observed.
func (s scrape) histMeanMS(name string, labels ...string) float64 {
	n := s.sum(name+"_count", labels...)
	if n == 0 {
		return nan
	}
	return s.sum(name+"_sum", labels...) / n * 1e3
}
