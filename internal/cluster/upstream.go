package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// upstream is how the proxy reaches its nodes: a pool of keep-alive
// HTTP/1.1 connections per node, driven by the calling goroutine alone
// (DESIGN.md §6). The zero value is ready to use.
type upstream struct {
	mu   sync.Mutex
	idle map[string][]*upConn // by host:port
}

// upConn is one pooled connection; wbuf holds the request being sent.
type upConn struct {
	net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// do sends one request to url ("http://host:port/path") under the
// client's request id and hands the answer to read, whose error it
// returns; the connection is pooled again if read left no body behind.
// A request that fails on a pooled connection before any answer byte
// arrived is sent once more on a fresh dial.
func (u *upstream) do(ctx context.Context, method, url, reqID string, body []byte, read func(*http.Response) error) error {
	rest, ok := strings.CutPrefix(url, "http://")
	i := strings.IndexByte(rest, '/')
	if !ok || i <= 0 {
		return fmt.Errorf("upstream %s: not an http://host/path URL", url)
	}
	host := rest[:i]
	deadline, _ := ctx.Deadline()
	fail := func(err error) error {
		if ctx.Err() != nil {
			err = ctx.Err() // the deadline or the caller ended it
		}
		return fmt.Errorf("upstream %s: %w", url, err)
	}
	for fresh := false; ; fresh = true {
		c, reused, err := u.get(ctx, host, fresh)
		if err != nil {
			return fail(err)
		}
		c.SetDeadline(deadline)
		stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) }) // fails blocked I/O
		resp, early, err := c.roundTrip(method, host, rest[i:], reqID, body)
		if err != nil {
			stop()
			c.Close()
			if early && reused && ctx.Err() == nil {
				continue // the node dropped it (restart, shutdown, idle close)
			}
			return fail(err)
		}
		err = read(resp)
		_, drained := io.CopyN(io.Discard, resp.Body, 4<<10)
		if stop() && drained == io.EOF && !resp.Close {
			u.put(host, c)
		} else {
			c.Close()
		}
		return err
	}
}

// roundTrip writes the request with one Write and reads the answer's
// head. early means no answer byte arrived: the node cannot have begun
// answering, so the request may be sent again.
func (c *upConn) roundTrip(method, host, uri, reqID string, body []byte) (resp *http.Response, early bool, err error) {
	b := append(c.wbuf[:0], method...)
	b = append(append(append(b, ' '), uri...), " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	if reqID != "" {
		b = append(append(b, "\r\nX-Request-Id: "...), reqID...)
	}
	if body != nil || method != http.MethodGet {
		b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(body)), 10)
	}
	c.wbuf = append(append(b, "\r\n\r\n"...), body...)
	if _, err = c.Write(c.wbuf); err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		return nil, true, err
	}
	resp, err = http.ReadResponse(c.br, nil)
	return resp, false, err
}

// get takes an idle connection to host, or dials one when there is
// none or fresh is set; reused says it served before.
func (u *upstream) get(ctx context.Context, host string, fresh bool) (*upConn, bool, error) {
	u.mu.Lock()
	if cs := u.idle[host]; !fresh && len(cs) > 0 {
		c := cs[len(cs)-1]
		u.idle[host] = cs[:len(cs)-1]
		u.mu.Unlock()
		return c, true, nil
	}
	u.mu.Unlock()
	nc, err := (&net.Dialer{}).DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, false, err
	}
	return &upConn{Conn: nc, br: bufio.NewReader(nc)}, false, nil
}

// put pools c for host, up to 32 idle connections a node; a pooled
// connection keeps no buffer a migration image grew.
func (u *upstream) put(host string, c *upConn) {
	if cap(c.wbuf) > 64<<10 {
		c.wbuf = nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.idle == nil {
		u.idle = map[string][]*upConn{}
	}
	if len(u.idle[host]) < 32 {
		u.idle[host] = append(u.idle[host], c)
	} else {
		c.Close()
	}
}
