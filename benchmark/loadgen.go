package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// Sample kinds. A sample packs its kind into the top two bits of a
// uint32 and the latency in nanoseconds (clamped at ~1.07 s) into the
// rest, so the sample buffers are a fixed 2 MB per client however fast
// the system runs — they sit on the heap heap_live_mb measures.
const (
	sAdmit = iota
	sRelease
	sQuery

	sampleCap  = 1 << 19
	sampleMask = 1<<30 - 1
)

// counters is one client's outcome ledger.
type counters struct {
	sent      int // requests sent (admits, releases, queries)
	ok        int // admits answered "admit"
	rejected  int // admits answered "reject"
	queries   int // queries answered
	failed    int // errors, wrong verdicts, rejects without provenance, failed releases
	redirects int // 421 ownership redirects seen (none expected: membership is static)
	firstErr  string
}

func (c *counters) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// client is one closed-loop client on one keep-alive connection per
// node: it sends its stream's next request only after the previous
// answer is decoded, and releases every admitted job before moving on.
type client struct {
	http   *http.Client
	urls   []string
	stream []op
	pos    int

	counters
	samples []uint32
	buf     bytes.Buffer
}

func newClient(urls []string, stream []op) *client {
	return &client{
		http: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
		urls:    urls,
		stream:  stream,
		samples: make([]uint32, 0, sampleCap),
	}
}

func (c *client) record(kind int, d time.Duration) {
	ns := d.Nanoseconds()
	if ns > sampleMask {
		ns = sampleMask
	}
	c.samples = append(c.samples, uint32(kind)<<30|uint32(ns))
}

// do sends one request and leaves the response body in c.buf.
func (c *client) do(method, url string, body []byte, headers map[string]string) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	c.sent++
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusMisdirectedRequest {
		c.redirects++
	}
	return resp.StatusCode, err
}

// step performs the stream's next operation and checks its output.
func (c *client) step() {
	o := &c.stream[c.pos%len(c.stream)]
	c.pos++
	base := c.urls[o.entry]
	switch o.kind {
	case opAdmit:
		start := time.Now()
		status, err := c.do(http.MethodPost, base+"/v1/admit", o.body, nil)
		var resp server.AdmitResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(c.buf.Bytes(), &resp)
		}
		c.record(sAdmit, time.Since(start))
		switch {
		case err != nil:
			c.fail("admit %s: %v", o.job.Dist.Name, err)
			return
		case status != http.StatusOK:
			c.fail("admit %s: status %d: %s", o.job.Dist.Name, status, bytes.TrimSpace(c.buf.Bytes()))
			return
		case resp.Admit != o.expect:
			c.fail("admit %s: verdict %v, label %v (%s)", o.job.Dist.Name, resp.Admit, o.expect, resp.Reason)
		case !resp.Admit && resp.Provenance == nil:
			c.fail("admit %s: rejected without provenance", o.job.Dist.Name)
		}
		if !resp.Admit {
			c.rejected++
			return
		}
		c.ok++
		start = time.Now()
		status, err = c.do(http.MethodPost, base+"/v1/release", o.release, nil)
		c.record(sRelease, time.Since(start))
		if err != nil || status != http.StatusOK {
			c.fail("release %s: status %d err %v", o.job.Dist.Name, status, err)
		}
	case opQueryGet, opQueryPost:
		start := time.Now()
		var status int
		var err error
		if o.kind == opQueryGet {
			status, err = c.do(http.MethodGet, base+o.path, nil, nil)
		} else {
			status, err = c.do(http.MethodPost, base+"/v1/query", o.body, nil)
		}
		var resp server.QueryResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(c.buf.Bytes(), &resp)
		}
		c.record(sQuery, time.Since(start))
		switch {
		case err != nil || status != http.StatusOK:
			c.fail("query %q: status %d err %v", o.query, status, err)
		case resp.Holds != o.expect:
			c.fail("query %q: holds %v, label %v", o.query, resp.Holds, o.expect)
		default:
			c.queries++
		}
	}
}

// runClients drives every client through `each` operations when each > 0
// (the warm-up), else until d has elapsed (a measured run), and returns
// the elapsed wall time. Clients stop on an operation boundary, so every
// admitted job has been released when it returns.
func runClients(clients []*client, each int, d time.Duration) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if each > 0 {
				for i := 0; i < each; i++ {
					c.step()
				}
				return
			}
			for time.Since(start) < d {
				c.step()
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// latencies digests the clients' samples of one kind from a measured
// run: all of them sorted (µs), and each client's in the order taken.
func latencies(clients []*client, kind int) (sorted []float64, inOrder [][]float64) {
	inOrder = make([][]float64, len(clients))
	for i, c := range clients {
		for _, v := range c.samples {
			if int(v>>30) == kind {
				inOrder[i] = append(inOrder[i], float64(v&sampleMask)/1e3)
			}
		}
		sorted = append(sorted, inOrder[i]...)
	}
	sort.Float64s(sorted)
	return sorted, inOrder
}

// resetMeasured forgets the warm-up's samples and counts but keeps the
// stream position, so the measured run continues where warm-up stopped.
func (c *client) resetMeasured() {
	c.samples = c.samples[:0]
	c.counters = counters{}
}

func sumCounters(clients []*client) counters {
	var t counters
	for _, c := range clients {
		t.sent += c.sent
		t.ok += c.ok
		t.rejected += c.rejected
		t.queries += c.queries
		t.failed += c.failed
		t.redirects += c.redirects
		if t.firstErr == "" {
			t.firstErr = c.firstErr
		}
	}
	return t
}

func closeClients(clients []*client) {
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}
}
