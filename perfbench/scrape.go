package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// scrapedFamilies are the /metrics families the benchmark reads.
var scrapedFamilies = []string{
	"mcs_cache_", "mcs_coalesce_", "mcs_pool_", "mcs_session",
	"mcs_request_duration_seconds", "mcs_requests_total",
}

// Sample maps a series ("name{labels}") to its value.
type Sample map[string]float64

// scrape reads the scraped families from a /metrics endpoint.
func scrape(client *http.Client, url string) (Sample, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", url, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics parses the Prometheus text format, keeping the scraped
// families.
func parseMetrics(r io.Reader) (Sample, error) {
	out := make(Sample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || !scraped(line) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func scraped(line string) bool {
	for _, f := range scrapedFamilies {
		if strings.HasPrefix(line, f) {
			return true
		}
	}
	return false
}

// Delta is after − before for every series (gauges keep after's value
// minus before's too; callers read gauges from a Sample directly).
func Delta(before, after Sample) Sample {
	out := make(Sample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// HistQuantile estimates the q-quantile of the endpoint's
// mcs_request_duration_seconds histogram in d, interpolating linearly
// inside the bucket that holds it as Prometheus' histogram_quantile
// does. It returns seconds, and the sample count.
func (d Sample) HistQuantile(endpoint string, q float64) (float64, int) {
	prefix := fmt.Sprintf("mcs_request_duration_seconds_bucket{endpoint=%q,le=", endpoint)
	type bucket struct{ le, count float64 }
	var bs []bucket
	for k, v := range d {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.Trim(k[len(prefix):], `"}`), 64)
		if err != nil {
			le = math.Inf(1) // "+Inf"
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0, 0
	}
	total := bs[len(bs)-1].count
	rank := q * total
	lower, below := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lower, int(total)
			}
			return lower + (b.le-lower)*(rank-below)/(b.count-below), int(total)
		}
		lower, below = b.le, b.count
	}
	return lower, int(total)
}
