// The fleet tests' in-process fault-injection harness: a faultProxy
// fronts one worker's HTTP endpoint and drops, holds, or severs
// traffic at scripted protocol points — pre-dispatch (the shard
// request arriving), mid-execute (the request has reached the worker),
// and pre-result (the response that would deliver the finished
// partial). Scripts hook exact protocol moments instead of sleeping, so
// every coordinator re-dispatch path is exercised deterministically.
//
// Faults are connection-shaped, not HTTP-shaped: a dropped or severed
// request aborts the connection (the client sees EOF / connection
// reset), exactly what a crashed or partitioned worker looks like to a
// coordinator.

package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// faultPoint names a protocol moment the proxy can act at.
type faultPoint string

// Scriptable protocol points.
const (
	// pointDispatch is a shard request (POST /v1/shards) arriving at
	// the worker. Dropping here is a pre-dispatch fault: the worker
	// never hears of the shard.
	pointDispatch faultPoint = "dispatch"
	// pointResult is a shard request's response that carries the
	// shard's outcome: the partial (200) or the execution error (500).
	// Dropping here is a pre-result fault: the worker executed the
	// shard, the coordinator never learns it.
	pointResult faultPoint = "result"
)

// faultProxy is an HTTP fault-injection proxy in front of one worker. Mount
// Handler (e.g. on an httptest.Server) and point the coordinator at it
// instead of the worker. All methods are safe for concurrent use with
// in-flight requests.
type faultProxy struct {
	backend *url.URL
	client  *http.Client

	mu       sync.Mutex
	severed  bool
	dropNext map[faultPoint]int
	holdCh   map[faultPoint]chan struct{}
	after    map[faultPoint][]func()
}

// New builds a proxy for the worker at backendURL.
func newFaultProxy(backendURL string) (*faultProxy, error) {
	u, err := url.Parse(backendURL)
	if err != nil {
		return nil, err
	}
	return &faultProxy{
		backend:  u,
		client:   &http.Client{},
		dropNext: map[faultPoint]int{},
		holdCh:   map[faultPoint]chan struct{}{},
		after:    map[faultPoint][]func(){},
	}, nil
}

// Handler returns the proxying handler.
func (p *faultProxy) Handler() http.Handler { return http.HandlerFunc(p.serve) }

// Sever simulates the worker's machine vanishing: every request — and
// every response still in flight through the proxy — aborts at the
// connection level from now on, until Restore.
func (p *faultProxy) Sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.severed = true
}

// Restore undoes Sever.
func (p *faultProxy) Restore() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.severed = false
}

// DropNext aborts the next n requests (or, for pointResult, responses)
// classified at the point.
func (p *faultProxy) DropNext(pt faultPoint, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropNext[pt] += n
}

// Hold blocks traffic at the point until the returned release function
// is called (idempotent). Holding pointResult parks the response that
// would deliver the finished partial — the worker has executed, the
// coordinator hasn't heard — the window where late-duplicate discard
// and mid-execute death races live.
func (p *faultProxy) Hold(pt faultPoint) (release func()) {
	p.mu.Lock()
	ch := make(chan struct{})
	p.holdCh[pt] = ch
	p.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			if p.holdCh[pt] == ch {
				delete(p.holdCh, pt)
			}
			p.mu.Unlock()
			close(ch)
		})
	}
}

// After registers a one-shot hook that fires right after traffic passes
// the point — After(pointDispatch, ...) fires once a shard request has
// been written to the worker, i.e. the start of mid-execute, and
// After(pointResult, ...) once the result has been delivered. The proxy
// goes on only when the hooks return, so a script can sever the proxy,
// stop heartbeats, and advance a fake clock at an exact protocol moment.
func (p *faultProxy) After(pt faultPoint, f func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.after[pt] = append(p.after[pt], f)
}

// act consults the script for the point; it reports whether to abort,
// after blocking on any hold. A held request whose client gives up
// (context canceled) aborts rather than pinning the server.
func (p *faultProxy) act(ctx context.Context, pt faultPoint) (abort bool) {
	p.mu.Lock()
	if p.severed {
		p.mu.Unlock()
		return true
	}
	if p.dropNext[pt] > 0 {
		p.dropNext[pt]--
		p.mu.Unlock()
		return true
	}
	hold := p.holdCh[pt]
	p.mu.Unlock()
	if hold != nil {
		select {
		case <-hold:
		case <-ctx.Done():
			return true
		}
		// The world may have changed while held (severed, new drops).
		return p.act(ctx, pt)
	}
	return false
}

// fireAfter runs and clears the point's one-shot hooks.
func (p *faultProxy) fireAfter(pt faultPoint) {
	p.mu.Lock()
	hooks := p.after[pt]
	delete(p.after, pt)
	p.mu.Unlock()
	for _, f := range hooks {
		f()
	}
}

func classify(r *http.Request) faultPoint {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/shards" {
		return pointDispatch
	}
	return ""
}

// carriesResult reports whether a shard request's response carries the
// shard's outcome — the payload a pre-result fault must intercept —
// rather than a rejection (400, 503) issued before it ran.
func carriesResult(status int) bool {
	return status == http.StatusOK || status == http.StatusInternalServerError
}

func (p *faultProxy) serve(rw http.ResponseWriter, r *http.Request) {
	pt := classify(r)
	if pt != "" && p.act(r.Context(), pt) {
		panic(http.ErrAbortHandler)
	}
	if pt == "" {
		p.mu.Lock()
		severed := p.severed
		p.mu.Unlock()
		if severed {
			panic(http.ErrAbortHandler)
		}
	}

	// Forward to the backend.
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	u := *p.backend
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	ctx := r.Context()
	// A shard request reaches the worker once it is written to the
	// worker's connection (a write the transport retries on a fresh
	// connection counts once it succeeds): the dispatch hooks fire
	// there, while the worker executes, and the proxy waits for them
	// before relaying the response.
	hooked := make(chan struct{})
	if pt == pointDispatch {
		var once sync.Once
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest: func(info httptrace.WroteRequestInfo) {
				if info.Err == nil {
					once.Do(func() {
						p.fireAfter(pointDispatch)
						close(hooked)
					})
				}
			},
		})
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u.String(), bytes.NewReader(body))
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if err != nil {
		panic(http.ErrAbortHandler)
	}

	// Response-side point: a finished result about to be delivered.
	result := false
	if pt == pointDispatch {
		select {
		case <-hooked:
		case <-r.Context().Done():
			panic(http.ErrAbortHandler)
		}
		result = carriesResult(resp.StatusCode)
		if result && p.act(r.Context(), pointResult) {
			panic(http.ErrAbortHandler)
		}
	}

	// A sever that landed while the backend worked aborts the delivery.
	p.mu.Lock()
	severed := p.severed
	p.mu.Unlock()
	if severed {
		panic(http.ErrAbortHandler)
	}

	if ct := resp.Header.Get("Content-Type"); ct != "" {
		rw.Header().Set("Content-Type", ct)
	}
	rw.WriteHeader(resp.StatusCode)
	_, _ = rw.Write(respBody)
	if result {
		p.fireAfter(pointResult)
	}
}

// fakeWorker answers the shard requests the proxy classifies: 503
// until it is marked ready, then 200 with a stand-in partial.
type fakeWorker struct {
	ready atomic.Bool
}

func (w *fakeWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/shards":
		if !w.ready.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(rw, `{"error": "busy"}`)
			return
		}
		io.WriteString(rw, `{"shard": 0, "shards": 1}`)
	default:
		rw.WriteHeader(http.StatusNotFound)
	}
}

func startProxy(t *testing.T) (*fakeWorker, *faultProxy, *httptest.Server) {
	t.Helper()
	w := &fakeWorker{}
	backend := httptest.NewServer(w)
	t.Cleanup(backend.Close)
	p, err := newFaultProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)
	return w, p, front
}

func post(t *testing.T, url string) (*http.Response, error) {
	t.Helper()
	return http.Post(url+"/v1/shards", "application/json", strings.NewReader(`{}`))
}

func TestProxyPassesAndClassifies(t *testing.T) {
	w, _, front := startProxy(t)
	resp, err := post(t, front.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("rejected dispatch through proxy: HTTP %d", resp.StatusCode)
	}
	w.ready.Store(true)
	resp, err = post(t, front.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"shards"`) {
		t.Fatalf("result through proxy: HTTP %d %s", resp.StatusCode, body)
	}
}

func TestProxyDropNextAndSever(t *testing.T) {
	_, p, front := startProxy(t)
	p.DropNext(pointDispatch, 1)
	if _, err := post(t, front.URL); err == nil {
		t.Fatal("dropped dispatch still answered")
	}
	// The drop was one-shot.
	resp, err := post(t, front.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	p.Sever()
	if _, err := post(t, front.URL); err == nil {
		t.Fatal("severed proxy still answered")
	}
	if _, err := http.Get(front.URL + "/v1/shards"); err == nil {
		t.Fatal("severed proxy still answered the job list")
	}
	p.Restore()
	resp, err = post(t, front.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestProxyDropsOnlyFinishedResults(t *testing.T) {
	w, p, front := startProxy(t)
	p.DropNext(pointResult, 1)
	// Rejections pass while the fault waits for the real result.
	resp, err := post(t, front.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	w.ready.Store(true)
	if _, err := post(t, front.URL); err == nil {
		t.Fatal("finished result was delivered through a pre-result drop")
	}
	// One-shot: the retry gets through.
	resp, err = post(t, front.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestProxyHoldAndAfterHooks(t *testing.T) {
	w, p, front := startProxy(t)
	w.ready.Store(true)

	fired := make(chan struct{})
	p.After(pointDispatch, func() { close(fired) })
	resp, err := post(t, front.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-fired:
	default:
		t.Fatal("After(pointDispatch) hook did not fire before the response was readable")
	}

	release := p.Hold(pointResult)
	got := make(chan error, 1)
	go func() {
		resp, err := post(t, front.URL)
		if err == nil {
			resp.Body.Close()
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("held result delivered early (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("released result errored: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("released result never delivered")
	}
	release() // idempotent
}
