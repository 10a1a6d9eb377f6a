package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"syscall"
	"time"
)

// poller is the load generator's socket layer: every connection of a
// daemon run — the poster's, the scraper's and each watcher's — is a
// non-blocking socket on one epoll instance, and the one goroutine that
// drives the rounds reads them all. Hundreds of parked connections then
// cost the generator one thread and no scheduling, so what a run
// measures is the daemon waking its watchers, not the Go scheduler of
// the benchmark waking as many goroutines.
type poller struct {
	epfd   int
	conns  []*conn // by epoll user data
	events []syscall.EpollEvent
	ready  []*conn // result of the last poll
}

// conn is one kept-alive HTTP/1.1 connection of a poller. The caller
// supplies the request bytes; the response is parsed in place.
type conn struct {
	p    *poller
	fd   int
	slot int
	in   []byte
	// watcher is the long-poll loop this connection belongs to; nil for a
	// connection requests are sent on one at a time.
	watcher *watcher
	// complete is set by poll once resp, err and done describe the answer
	// to the last request sent; send clears it.
	complete bool
	resp     response
	err      error
	done     time.Time
}

// response is one parsed reply. Body aliases the connection's buffer
// and is valid until the next request is sent on that connection.
type response struct {
	Status int
	ETag   string
	Body   []byte
}

func newPoller() (*poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("epoll_create1: %w", err)
	}
	return &poller{epfd: epfd, events: make([]syscall.EpollEvent, 128)}, nil
}

// close closes every connection and the epoll instance; a second call
// does nothing.
func (p *poller) close() {
	if p.epfd < 0 {
		return
	}
	for _, c := range p.conns {
		if c != nil {
			_ = syscall.Close(c.fd)
		}
	}
	_ = syscall.Close(p.epfd)
	p.conns, p.epfd = nil, -1
}

// close drops one connection; closing the socket takes it off the epoll
// instance.
func (c *conn) close() {
	_ = syscall.Close(c.fd)
	c.p.conns[c.slot] = nil
}

// dial connects to a loopback "ip:port" address and registers the
// socket.
func (p *poller) dial(addr string) (*conn, error) {
	tcp, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	sa := &syscall.SockaddrInet4{Port: tcp.Port}
	copy(sa.Addr[:], tcp.IP.To4())
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	// The connect blocks, which on loopback means it returns at once:
	// accepted into the listen queue, or refused.
	if err := syscall.Connect(fd, sa); err != nil {
		_ = syscall.Close(fd)
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	c := &conn{p: p, fd: fd, slot: len(p.conns), in: make([]byte, 0, 16<<10)}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(c.slot)}
	err = errors.Join(
		syscall.SetNonblock(fd, true),
		syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1),
		syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev),
	)
	if err != nil {
		_ = syscall.Close(fd)
		return nil, fmt.Errorf("preparing socket to %s: %w", addr, err)
	}
	p.conns = append(p.conns, c)
	return c, nil
}

// send writes one request. Requests are far smaller than a socket
// buffer, so a write that would block is reported, not waited for.
func (c *conn) send(req []byte) error {
	c.complete, c.err, c.resp = false, nil, response{}
	c.in = c.in[:0]
	for len(req) > 0 {
		n, err := syscall.Write(c.fd, req)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return fmt.Errorf("writing request: %w", err)
		}
		req = req[n:]
	}
	return nil
}

// poll reads whatever has arrived and returns the connections whose
// response became complete (or failed), waiting at most until deadline
// for the first of them. The returned slice is reused by the next call.
func (p *poller) poll(deadline time.Time) ([]*conn, error) {
	p.ready = p.ready[:0]
	for len(p.ready) == 0 {
		left := time.Until(deadline)
		if left <= 0 {
			return nil, nil
		}
		n, err := syscall.EpollWait(p.epfd, p.events, int(left/time.Millisecond)+1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("epoll_wait: %w", err)
		}
		for _, ev := range p.events[:n] {
			c := p.conns[ev.Fd]
			if c.complete {
				// Nothing was asked: the peer closed, or sent bytes of its own.
				c.err = errors.New("connection closed or written to by the peer while idle")
				_ = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, c.fd, nil)
				continue
			}
			if c.receive() {
				c.done = time.Now()
				c.complete = true
				p.ready = append(p.ready, c)
			}
		}
	}
	return p.ready, nil
}

// receive reads once from a readable socket and reports whether the
// response is complete now. A short read has drained the socket; a full
// one leaves the rest to the next, level-triggered, event.
func (c *conn) receive() bool {
	if len(c.in) == cap(c.in) {
		c.in = append(c.in, make([]byte, cap(c.in))...)[:len(c.in)]
	}
	n, err := syscall.Read(c.fd, c.in[len(c.in):cap(c.in)])
	switch {
	case err == syscall.EAGAIN || err == syscall.EINTR:
		return false
	case err != nil:
		c.err = fmt.Errorf("reading response: %w", err)
		return true
	case n == 0:
		c.err = errors.New("reading response: connection closed")
		return true
	}
	c.in = c.in[:len(c.in)+n]
	var consumed int
	c.resp, consumed, c.err = parseResponse(c.in)
	if c.err == nil && consumed == 0 {
		return false
	}
	if c.err == nil && consumed != len(c.in) {
		c.err = fmt.Errorf("%d bytes follow the response", len(c.in)-consumed)
	}
	return true
}

var (
	crlf             = []byte("\r\n")
	headerEnd        = []byte("\r\n\r\n")
	hdrContentLength = []byte("content-length:")
	hdrChunked       = []byte("transfer-encoding: chunked")
	hdrETag          = []byte("etag:")
)

// parseResponse parses one response from the start of buf: status
// line, the three headers the benchmark cares about, and a
// Content-Length or chunked body. consumed is the response's length in
// buf, or 0 while buf does not hold all of it yet. A Content-Length
// body aliases buf; a chunked one is assembled in memory of its own.
func parseResponse(buf []byte) (r response, consumed int, err error) {
	end := bytes.Index(buf, headerEnd)
	if end < 0 {
		return r, 0, nil
	}
	head, rest := buf[:end], buf[end+len(headerEnd):]
	line, head, _ := bytes.Cut(head, crlf)
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return r, 0, fmt.Errorf("malformed status line %q", line)
	}
	if r.Status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return r, 0, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for len(head) > 0 {
		line, head, _ = bytes.Cut(head, crlf)
		switch {
		case hasPrefixFold(line, hdrContentLength):
			v := bytes.TrimSpace(line[len(hdrContentLength):])
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return r, 0, fmt.Errorf("malformed Content-Length %q", v)
			}
		case hasPrefixFold(line, hdrChunked):
			chunked = true
		case hasPrefixFold(line, hdrETag):
			r.ETag = string(bytes.TrimSpace(line[len(hdrETag):]))
		}
	}
	switch {
	case chunked:
		var n int
		if r.Body, n, err = parseChunked(rest); err != nil || n == 0 {
			return r, 0, err
		}
		return r, len(buf) - len(rest) + n, nil
	case length < 0:
		return r, 0, errors.New("response has neither Content-Length nor chunked encoding")
	case len(rest) < length:
		return r, 0, nil
	}
	r.Body = rest[:length]
	return r, len(buf) - len(rest) + length, nil
}

// parseChunked decodes a chunked body (trailers discarded) from the
// start of buf; consumed is 0 while the last chunk has not arrived.
func parseChunked(buf []byte) (body []byte, consumed int, err error) {
	rest := buf
	for {
		line, after, found := bytes.Cut(rest, crlf)
		if !found {
			return nil, 0, nil
		}
		sizeField, _, _ := bytes.Cut(line, []byte(";"))
		size, err := strconv.ParseUint(string(bytes.TrimSpace(sizeField)), 16, 31)
		if err != nil {
			return nil, 0, fmt.Errorf("malformed chunk size %q", line)
		}
		if size == 0 {
			// Trailer section: lines up to the blank one.
			for {
				line, after, found = bytes.Cut(after, crlf)
				if !found {
					return nil, 0, nil
				}
				if len(line) == 0 {
					return body, len(buf) - len(after), nil
				}
			}
		}
		if uint64(len(after)) < size+uint64(len(crlf)) {
			return nil, 0, nil
		}
		body = append(body, after[:size]...)
		rest = after[size+uint64(len(crlf)):]
	}
}

// hasPrefixFold reports whether line starts with the lower-case ASCII
// prefix, ignoring the line's case.
func hasPrefixFold(line, lowerPrefix []byte) bool {
	return len(line) >= len(lowerPrefix) && bytes.EqualFold(line[:len(lowerPrefix)], lowerPrefix)
}

// getRequest builds a GET for path on a kept-alive connection.
func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// postRequest builds a JSON POST for path.
func postRequest(path string, body []byte) []byte {
	head := "POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(head), body...)
}
