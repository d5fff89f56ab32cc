package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"mcspeedup"
	"mcspeedup/internal/cache"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/stats"
	"mcspeedup/internal/task"
)

const (
	// serveCorpus is 4× the server's default 1024-entry result cache,
	// so Zipf popularity mixes hits and misses at a steady ratio.
	serveCorpus   = 4096
	cacheEntries  = 1024
	zipfExponent  = 1.1
	reorderOneIn  = 5
	serveConns    = 2 // nproc of the host the ladder was calibrated on
	warmupReqs    = 4096
	clientTimeout = 5 * time.Second
)

// ladder is the fixed offered-rate ladder in requests per second,
// calibrated once on a 2-vCPU AMD EPYC host and frozen; rates never adapt
// per run. The knee (windowed p99 above 10 ms or a growing backlog) moved
// between 4500 and 7000 rps from run to run there, so the top rung stays
// below it. Latency metrics come from the middle rung, which runs three
// times as long as the others. Its rate is low because queueing behind
// misses amplifies the host's speed swings in the tail: between runs the
// middle rung's p99 varied by 2x at 2250 rps and by ~30% at 1000.
var ladder = []float64{250, 375, 500, 2000, 3500}

const midRung = 2

// rungSizes splits d over the ladder, the middle rung taking three
// shares, and returns each rung's request count.
func rungSizes(d time.Duration) []int {
	share := d.Seconds() / float64(len(ladder)+2)
	out := make([]int, len(ladder))
	for i, rate := range ladder {
		w := 1.0
		if i == midRung {
			w = 3
		}
		out[i] = int(rate * share * w)
	}
	return out
}

func ladderString() string {
	parts := make([]string, len(ladder))
	for i, r := range ladder {
		parts[i] = fmt.Sprint(r)
	}
	return strings.Join(parts, "/") + " rps"
}

// serveRequest is one request of the stream: a corpus entry and whether
// the body is its reordered variant.
type serveRequest struct {
	set     int
	variant bool
}

// bodyCorpus holds two serialized bodies per corpus set: [0] in
// generated order, [1] reordered.
type bodyCorpus struct {
	bodies [2][][]byte
}

// newServeCorpus draws serveCorpus sets with n ∈ [8, 64] and log-uniform
// periods, and serializes both bodies of each.
func newServeCorpus(seed int64) (*bodyCorpus, error) {
	c := &bodyCorpus{}
	for b := range c.bodies {
		c.bodies[b] = make([][]byte, serveCorpus)
	}
	for i := 0; i < serveCorpus; i++ {
		rnd := gen.SubRand(seed, 3000, i)
		s := drawSet(rnd, Spec{N: 8 + rnd.Intn(57), Periods: LogUniform, U: 0.9})
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("serve corpus set %d: %w", i, err)
		}
		rev := make(task.Set, len(s))
		for j := range s {
			rev[len(s)-1-j] = s[j]
		}
		var err error
		if c.bodies[0][i], err = json.Marshal(s); err != nil {
			return nil, err
		}
		if c.bodies[1][i], err = json.MarshalIndent(rev, "", " "); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// stream draws n requests: Zipf popularity over a seeded permutation of
// the corpus, one body in reorderOneIn reordered.
func serveStream(seed int64, n int) []serveRequest {
	rnd := gen.SubRand(seed, 3001, 0)
	perm := rnd.Perm(serveCorpus)
	z := rand.NewZipf(rnd, zipfExponent, 1, serveCorpus-1)
	out := make([]serveRequest, n)
	for i := range out {
		out[i] = serveRequest{set: perm[z.Uint64()], variant: rnd.Intn(reorderOneIn) == 0}
	}
	return out
}

// outcome is one request's result, kept small: the body is reduced to
// its digest in the worker, and checked after the run.
type outcome struct {
	due, start, end time.Time
	status          int
	digest          [32]byte
	err             error
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// serverProc is a running mcs-serve.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	done   chan struct{} // closed when stderr reaches EOF
	client *http.Client
}

// startServer starts mcs-serve with default flags on a loopback
// ephemeral port and returns once /readyz answers 200, with the time
// that took.
func startServer(bin string) (*serverProc, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{}),
		client: &http.Client{Timeout: time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			// The "listening on" line is mcs-serve's startup handshake.
			if _, addr, ok := strings.Cut(sc.Text(), "listening on http://"); ok {
				addrc <- addr
			}
		}
	}()
	select {
	case p.addr = <-addrc:
	case <-p.done:
		p.stop()
		return nil, 0, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, 0, fmt.Errorf("%s did not report its address", bin)
	}
	// Poll without sleeping: a sleep rounds up to the runtime's ~1 ms
	// timer resolution, which would decide whether set-up reads 1 or 2 ms.
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := p.client.Get(p.url("/readyz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, fmt.Errorf("%s not ready: %v", bin, err)
		}
	}
}

func (p *serverProc) url(path string) string { return "http://" + p.addr + path }

// stop sends SIGTERM, waits for the process to exit (killing it after
// 20 s) and returns its exit error.
func (p *serverProc) stop() error {
	p.client.CloseIdleConnections()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	return p.cmd.Wait()
}

// newClients returns serveConns clients, each holding at most one
// keep-alive connection.
func newClients() []*http.Client {
	out := make([]*http.Client, serveConns)
	for i := range out {
		out[i] = &http.Client{Timeout: clientTimeout, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// post sends one analyze request and fills o's start, end, status and
// body digest.
func post(c *http.Client, url string, body []byte, o *outcome) {
	o.start = time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.end, o.err = time.Now(), err
		return
	}
	h := sha256.New()
	_, err = io.Copy(h, resp.Body)
	resp.Body.Close()
	o.end, o.status, o.err = time.Now(), resp.StatusCode, err
	h.Sum(o.digest[:0])
}

// rung is one step of the ladder.
type rung struct {
	rate     float64
	reqs     []serveRequest
	out      []outcome
	late     []time.Duration // generator lateness per dispatched request
	sent     int
	aborted  bool
	before   Sample
	after    Sample
	inflight []float64 // sampled pool busy share (traced runs)
}

// runRung offers reqs open-loop at rate: request k is due at
// start + k/rate whatever happened to earlier requests, and its latency
// counts from that due time. Dispatch stops early when more than a
// quarter second of requests is waiting, which the rung reports as a
// backlog.
func runRung(clients []*http.Client, url string, c *bodyCorpus, r *rung, tr *Tracer, opBase int64) {
	n := len(r.reqs)
	r.out = make([]outcome, n)
	r.late = make([]time.Duration, 0, n)
	queue := make(chan int, n) // sized to the number of sends
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for k := range queue {
				q := r.reqs[k]
				o := &r.out[k]
				post(cl, url, c.bodies[btoi(q.variant)][q.set], o)
				if tr != nil {
					op := opBase + int64(k)
					root := tr.Add("client.request", op, -1, o.due, o.end)
					tr.Add("client.roundtrip", op, root, o.start, o.end)
				}
			}
		}(cl)
	}
	interval := time.Duration(float64(time.Second) / r.rate)
	limit := int(r.rate / 4) // a quarter second of requests
	start := time.Now().Add(time.Millisecond)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if len(queue) > limit {
			r.aborted = true
			break
		}
		r.out[k].due = due
		r.late = append(r.late, time.Since(due))
		queue <- k
		r.sent++
	}
	close(queue)
	wg.Wait()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// p99Windows is how many consecutive windows a rung's p99 is taken over.
const p99Windows = 5

// windowedP99 is the median over p99Windows consecutive windows of each
// window's p99. The host is shared: one scheduling stall of a few tens of
// milliseconds delays every request due during it and alone decides a
// plain p99, in some runs and not others. A stall decides one window's
// p99 here; a change in the program moves all of them.
func windowedP99(lat []float64) float64 {
	w := len(lat) / p99Windows
	p := make([]float64, p99Windows)
	for i := range p {
		p[i] = stats.Quantile(lat[i*w:(i+1)*w], 0.99)
	}
	return median(p)
}

// stats summarises a rung: latencies from due time of the sent requests
// (a failed one counts as missing the limit), failures, and whether it
// met the SLO. A backlog grows when the requests of the rung's last tenth
// wait longer than those of its first tenth by more than the SLO, or
// when dispatch had to stop.
func (r *rung) stats(slo time.Duration) (lat []float64, failed int, met bool) {
	for i := 0; i < r.sent; i++ {
		o := &r.out[i]
		if !o.ok() {
			failed++
			lat = append(lat, ms(clientTimeout))
			continue
		}
		lat = append(lat, ms(o.end.Sub(o.due)))
	}
	if len(lat) < 100 {
		return lat, failed, false
	}
	tenth := len(lat) / 10
	grew := r.aborted || stats.Quantile(lat[len(lat)-tenth:], 0.5) > stats.Quantile(lat[:tenth], 0.5)+ms(slo)
	met = failed == 0 && !grew && windowedP99(lat) <= ms(slo)
	return lat, failed, met
}

func runServeZipf(c runConfig) (*Result, error) {
	corpus, err := newServeCorpus(c.Seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	sizes := rungSizes(c.Duration)
	total := warmupReqs
	for _, n := range sizes {
		total += n
	}
	stream := serveStream(c.Seed, total)

	// Set-up: start the server setupRepeats times; keep the last.
	setups := make([]float64, setupRepeats)
	var srv *serverProc
	for i := range setups {
		var d time.Duration
		if srv, d, err = startServer(c.ServeBin); err != nil {
			return nil, err
		}
		setups[i] = d.Seconds()
		if i < len(setups)-1 {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping mcs-serve: %w", err)
			}
		}
	}
	res.set("setup_s", median(setups), len(setups), "median mcs-serve start to first /readyz 200")
	var tr *Tracer
	if c.Trace {
		tr = NewTracer()
	}
	warm, rungs, rss, err := driveServer(srv, c, corpus, stream, sizes, res, tr)
	if stopErr := srv.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping mcs-serve: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	checkServe(res, corpus, append([]*rung{warm}, rungs...))

	mid := rungs[midRung]
	lat, _, _ := mid.stats(c.SLO)
	if !c.Trace {
		res.set("peak_rss_mb", rss, 1, "VmHWM of the mcs-serve process")
		okCount := 0
		for i := 0; i < mid.sent; i++ {
			if mid.out[i].ok() {
				okCount++
			}
		}
		last := mid.out[mid.sent-1].end
		res.set("ops_per_s", float64(okCount)/last.Sub(mid.out[0].due).Seconds(), okCount,
			fmt.Sprintf("successful responses per second at the %g rps rung", mid.rate))
		base := fmt.Sprintf("requests at the %g rps rung, from due time", mid.rate)
		res.set("latency_p50_ms", stats.Quantile(lat, 0.5), len(lat), base)
		res.set("latency_p99_ms", windowedP99(lat), len(lat), fmt.Sprintf("%s: median of %d windows' p99, %d beyond p99 per window", base, p99Windows, len(lat)/p99Windows/100))
	} else {
		serveLayers(res, c, corpus, stream, rungs, tr)
	}
	best := 0.0
	for _, r := range rungs {
		l, failed, met := r.stats(c.SLO)
		p99, wp99 := 0.0, 0.0
		if len(l) >= 100 {
			p99, wp99 = stats.Quantile(l, 0.99), windowedP99(l)
		}
		late := make([]float64, len(r.late))
		for i, v := range r.late {
			late[i] = ms(v)
		}
		res.note("rung %5g rps: sent %6d failed %d p50 %6.3f p99 %7.3f windowed p99 %7.3f max %7.3f ms; late p99 %6.3f max %7.3f ms; aborted %t slo-met %t",
			r.rate, r.sent, failed, stats.Quantile(l, 0.5), p99, wp99, stats.Quantile(l, 1), stats.Quantile(late, 0.99), stats.Quantile(late, 1), r.aborted, met)
		if met && r.rate > best {
			best = r.rate
		}
	}
	if !c.Trace {
		res.set("rps_at_slo", best, len(ladder), fmt.Sprintf("highest ladder rate with windowed p99 ≤ %v, no failure, no backlog", c.SLO))
		return res, nil
	}
	return res, writeSpans(c, "serve-zipf", tr)
}

// driveServer warms the cache with the stream's first warmupReqs
// requests, closed loop, then runs the ladder in order. It returns the
// warm-up, the rungs and the server's peak RSS.
func driveServer(srv *serverProc, c runConfig, corpus *bodyCorpus, stream []serveRequest, sizes []int, res *Result, tr *Tracer) (*rung, []*rung, float64, error) {
	clients := newClients()
	defer closeClients(clients)
	url := srv.url("/v1/analyze")
	warm := &rung{rate: 1e9, reqs: stream[:warmupReqs]}
	runRung(clients, url, corpus, warm, nil, 0)
	res.Attempted += warm.sent
	var rungs []*rung
	next := warmupReqs
	for i, rate := range ladder {
		n := sizes[i]
		r := &rung{rate: rate, reqs: stream[next : next+n]}
		next += n
		var err error
		if c.Trace {
			if r.before, err = scrape(srv.client, srv.url("/metrics")); err != nil {
				return nil, nil, 0, err
			}
			stop := samplePool(srv, r)
			runRung(clients, url, corpus, r, tr, int64(next-n))
			stop()
			if r.after, err = scrape(srv.client, srv.url("/metrics")); err != nil {
				return nil, nil, 0, err
			}
		} else {
			runRung(clients, url, corpus, r, nil, 0)
		}
		rungs = append(rungs, r)
		res.Attempted += r.sent
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	return warm, rungs, rss, err
}

// samplePool scrapes mcs_pool_in_flight every 20 ms until the returned
// stop function is called, recording in_flight over capacity.
func samplePool(srv *serverProc, r *rung) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	go func() {
		defer close(done)
		defer client.CloseIdleConnections()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				s, err := scrape(client, srv.url("/metrics"))
				if err == nil && s["mcs_pool_capacity"] > 0 {
					r.inflight = append(r.inflight, s["mcs_pool_in_flight"]/s["mcs_pool_capacity"])
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// checkServe counts every failed request and compares every 200 body with an in-process AnalyzeSet +
// MarshalIndent of the same set. The server's cache is content-addressed,
// so a body may carry the task order of whichever equal body was first
// analyzed; either order's bytes are accepted, nothing else.
func checkServe(res *Result, c *bodyCorpus, rungs []*rung) {
	need := make(map[int]bool)
	for _, r := range rungs {
		for i := 0; i < r.sent; i++ {
			need[r.reqs[i].set] = true
		}
	}
	want := make(map[int][2][32]byte, len(need))
	var mu sync.Mutex
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var d [2][32]byte
				for b := range d {
					s, err := mcspeedup.ParseSetJSON(c.bodies[b][i])
					if err != nil {
						continue
					}
					r, err := mcspeedup.AnalyzeSet(s, speedCap)
					if err != nil {
						continue
					}
					out, err := r.MarshalIndent()
					if err != nil {
						continue
					}
					d[b] = sha256.Sum256(append(out, '\n'))
				}
				mu.Lock()
				want[i] = d
				mu.Unlock()
			}
		}()
	}
	for i := range need {
		idx <- i
	}
	close(idx)
	wg.Wait()
	bad := 0
	for _, r := range rungs {
		for i := 0; i < r.sent; i++ {
			o := &r.out[i]
			w := want[r.reqs[i].set]
			switch {
			case !o.ok():
				res.Failed++
				res.Correct = false
				if bad++; bad <= 5 {
					res.note("request failed: status %d, %v", o.status, o.err)
				}
			case o.digest != w[0] && o.digest != w[1]:
				if bad++; bad <= 5 {
					res.note("CHECK FAILED: body for set %d differs from in-process AnalyzeSet", r.reqs[i].set)
				}
				res.Failed++
				res.Correct = false
			}
		}
	}
	res.note("checked %d distinct sets against in-process analyses; %d bad responses", len(need), bad)
}

// serveLayers fills the traced run's per-layer metrics: server, cache,
// coalescing and pool figures from /metrics deltas over the middle rung,
// generator health, and an in-process replay of the identical request
// stream through the task, cache, core and encode functions.
func serveLayers(res *Result, c runConfig, corpus *bodyCorpus, stream []serveRequest, rungs []*rung, tr *Tracer) {
	mid := rungs[midRung]
	d := Delta(mid.before, mid.after)
	p50, n := d.HistQuantile("/v1/analyze", 0.5)
	p99, _ := d.HistQuantile("/v1/analyze", 0.99)
	bucketNote := "interpolated in the server's 0.5/1/5/25 ms histogram buckets"
	res.set("server.handler_p50_ms", p50*1e3, n, bucketNote)
	res.set("server.handler_p99_ms", p99*1e3, n, bucketNote)
	lat, _, _ := mid.stats(c.SLO)
	res.set("server.transport_gap_ms", stats.Quantile(lat, 0.5)-p50*1e3, len(lat), "client p50 from due time minus handler p50")
	hits, misses := d["mcs_cache_hits_total"], d["mcs_cache_misses_total"]
	res.set("cache.hit_ratio", hits/(hits+misses), int(hits+misses), fmt.Sprintf("%g hits over %g lookups", hits, hits+misses))
	res.set("cache.evictions", d["mcs_cache_evictions_total"], int(hits+misses), "evictions during the middle rung")
	flights, dedup := d["mcs_coalesce_flights_total"], d["mcs_coalesce_dedup_total"]
	ratio := 0.0
	if flights+dedup > 0 {
		ratio = dedup / (flights + dedup)
	}
	res.set("cluster.coalesce_dedup_ratio", ratio, int(flights+dedup), fmt.Sprintf("%g joined over %g coalesced misses", dedup, flights+dedup))
	busy := 0.0
	if len(mid.inflight) > 0 {
		busy = stats.Mean(mid.inflight)
	}
	res.set("par.pool_busy_share", busy, len(mid.inflight), "sampled mcs_pool_in_flight over mcs_pool_capacity every 20 ms")
	rejected := d[`mcs_requests_total{endpoint="/v1/analyze",code="429"}`]
	res.set("par.admission_rejected", rejected, mid.sent, "429 responses during the middle rung")
	late := make([]float64, len(mid.late))
	for i, l := range mid.late {
		late[i] = ms(l)
	}
	res.set("gen.late_p99_ms", stats.Quantile(late, 0.99), len(late), "generator dispatch time minus due time, middle rung")

	// In-process replay of every request the server saw, untraced and
	// then traced, through a cache of the server's size.
	var reqs []serveRequest
	reqs = append(reqs, stream[:warmupReqs]...)
	for _, r := range rungs {
		reqs = append(reqs, r.reqs[:r.sent]...)
	}
	plain := replay(res, corpus, reqs, nil)
	traced := replay(res, corpus, reqs, tr)
	res.set("trace.overhead_share", overheadShare(plain, traced), len(reqs), "traced over untraced time of the same replayed requests, minus 1")
	st := tr.Stats()
	setSpan(res, st, "task.parse_us", "task.ParseSetJSON", time.Microsecond)
	setSpan(res, st, "task.fingerprint_us", "task.Set.Fingerprint", time.Microsecond)
	setSpan(res, st, "core.analyze_ms", "core.AnalyzeSet", time.Millisecond)
	setSpan(res, st, "core.report_encode_us", "core.Report.MarshalIndent", time.Microsecond)
	setCoverage(res, st["replay"], "one replayed request")
}

// replay runs requests in process: parse, fingerprint, cache lookup, and
// on a miss analyze, encode and insert.
func replay(res *Result, c *bodyCorpus, reqs []serveRequest, tr *Tracer) []time.Duration {
	lru := cache.New[[]byte](cacheEntries)
	lat := make([]time.Duration, len(reqs))
	for k, q := range reqs {
		op := int64(k)
		t0 := time.Now()
		root := tr.Begin("replay", op, -1)
		sp := tr.Begin("task.ParseSetJSON", op, root)
		s, err := mcspeedup.ParseSetJSON(c.bodies[btoi(q.variant)][q.set])
		tr.End(sp)
		if err == nil {
			sp = tr.Begin("task.Set.Fingerprint", op, root)
			key := s.Fingerprint()
			tr.End(sp)
			sp = tr.Begin("cache.Get", op, root)
			_, hit := lru.Get(key)
			tr.End(sp)
			if !hit {
				sp = tr.Begin("core.AnalyzeSet", op, root)
				var r mcspeedup.AnalysisReport
				r, err = mcspeedup.AnalyzeSet(s, speedCap)
				tr.End(sp)
				if err == nil {
					var out []byte
					sp = tr.Begin("core.Report.MarshalIndent", op, root)
					out, err = r.MarshalIndent()
					tr.End(sp)
					sp = tr.Begin("cache.Put", op, root)
					lru.Put(key, out)
					tr.End(sp)
				}
			}
		}
		tr.End(root)
		lat[k] = time.Since(t0)
		res.Attempted++
		if err != nil {
			res.fail("replayed request %d: %v", k, err)
		}
	}
	return lat
}
