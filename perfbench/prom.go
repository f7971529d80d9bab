package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample maps each series of a Prometheus text page ("name{labels}", or
// "name" for an unlabelled series) to its value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format both tiers write:
// comment lines, then one "series value" per line.
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// sum adds every series of metric name, whatever its labels; labels, when
// non-empty, must all appear in the series' label set (e.g. `kind="graph"`).
func (p promSample) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range p {
		base, lbl, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after minus before per series; series missing from before
// count from 0.
func delta(before, after promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// scrape fetches and parses one /metrics page.
func scrape(c *http.Client, base string) (promSample, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// scrapeAll scrapes several pages and adds them series by series, so counter
// deltas cover every backend of a tier.
func scrapeAll(c *http.Client, bases []string) (promSample, error) {
	out := make(promSample)
	for _, b := range bases {
		p, err := scrape(c, b)
		if err != nil {
			return nil, err
		}
		for k, v := range p {
			out[k] += v
		}
	}
	return out, nil
}
