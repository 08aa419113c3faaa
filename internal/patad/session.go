package patad

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
)

// Request line sizing: requests inline whole source files, so lines can be
// large. 64 KiB read buffer, 64 MiB hard cap per line.
const (
	scanInitBuf = 64 << 10
	scanMaxBuf  = 64 << 20
)

// lineReader splits a request stream into lines of at most scanMaxBuf bytes.
// Unlike bufio.Scanner, which stops for good at the first longer line, it
// consumes an oversized line to its end and reports it, so the session can
// answer it and keep serving.
type lineReader struct {
	br  *bufio.Reader
	buf []byte
}

// next returns the next line without its "\n" or "\r\n" terminator; the
// slice is valid until the following call. tooLong reports a line past
// scanMaxBuf, whose bytes were discarded. A final line without a terminator
// is returned before io.EOF.
func (lr *lineReader) next() (line []byte, tooLong bool, err error) {
	lr.buf = lr.buf[:0]
	for {
		frag, rerr := lr.br.ReadSlice('\n')
		if !tooLong {
			if len(lr.buf)+len(bytes.TrimSuffix(frag, []byte("\n"))) > scanMaxBuf {
				tooLong = true
				lr.buf = lr.buf[:0]
			} else {
				lr.buf = append(lr.buf, frag...)
			}
		}
		switch {
		case rerr == bufio.ErrBufferFull:
			continue
		case rerr == io.EOF && (len(lr.buf) > 0 || tooLong):
			// Unterminated final line; the next call reports io.EOF.
		case rerr != nil:
			return nil, false, rerr
		}
		line = bytes.TrimSuffix(lr.buf, []byte("\n"))
		return bytes.TrimSuffix(line, []byte("\r")), tooLong, nil
	}
}

// sessionWriter serializes one-line JSON responses onto a shared stream.
// Analyze responses come from per-request goroutines, so writes must be
// atomic per line or two responses could interleave mid-object.
type sessionWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (sw *sessionWriter) send(resp *Response) {
	data, err := json.Marshal(resp)
	if err != nil {
		// Response types marshal by construction; a failure here means a
		// programming error, and the session must still emit *a* line so
		// the client's id doesn't dangle.
		data = []byte(fmt.Sprintf(`{"id":%q,"op":%q,"ok":false,"error":"internal: response marshal failed"}`, resp.ID, resp.Op))
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.w.Write(data)
	sw.w.Write([]byte("\n"))
}

// ServeStream runs one protocol session over r/w until EOF, a read error,
// or server drain. A request line over scanMaxBuf gets a "bad request: line
// too long" error and the session goes on with the next line. Analyze requests are dispatched to goroutines so the
// session keeps reading (that is how admission control gets exercised and
// how a client cancels-by-disconnecting); control ops answer inline in
// arrival order. ServeStream returns only after every dispatched request
// has written its response.
func (s *Server) ServeStream(r io.Reader, w io.Writer) {
	sw := &sessionWriter{w: w}
	// Session context: cancelled when the session ends (so queued requests
	// from a vanished client are shed, not run) or when the server's drain
	// grace expires (killCtx).
	ctx, cancel := context.WithCancel(s.killCtx)
	defer cancel()
	var wg sync.WaitGroup
	defer wg.Wait()

	lr := &lineReader{br: bufio.NewReaderSize(r, scanInitBuf)}
	for {
		line, tooLong, err := lr.next()
		if err != nil {
			return
		}
		if tooLong {
			sw.send(&Response{OK: false, Error: fmt.Sprintf("bad request: line too long (over %d bytes)", scanMaxBuf)})
			continue
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			sw.send(&Response{OK: false, Error: fmt.Sprintf("bad request: %v", err)})
			continue
		}
		switch req.Op {
		case OpAnalyze:
			wg.Add(1)
			go func(req Request) {
				defer wg.Done()
				// analyzeInto sends the response itself, inside the
				// drain-tracked window, and contains its own panics.
				s.analyzeInto(ctx, &req, sw.send)
			}(req)
		case OpInvalidate:
			// Invalidation is serialized with the reader loop on purpose:
			// it defines an epoch boundary, and a client that pipelines
			// "invalidate, analyze" must see the analyze hit the new epoch.
			sw.send(s.guarded(&req, func() *Response { return s.invalidate(&req) }))
		case OpStatus:
			sw.send(s.status(&req))
		case OpPing:
			sw.send(&Response{ID: req.ID, Op: req.Op, OK: true})
		case OpShutdown:
			// A client that pipelines "analyze, shutdown" means the analyze
			// to run: wait for this session's dispatched requests (their
			// responses land first), then ack and drain. The impolite path
			// is SIGTERM, where the drain deadline caps the wait instead.
			wg.Wait()
			sw.send(&Response{ID: req.ID, Op: req.Op, OK: true})
			go s.Shutdown()
			return
		default:
			sw.send(&Response{ID: req.ID, Op: req.Op, OK: false,
				Error: fmt.Sprintf("unknown op %q", req.Op)})
		}
	}
}

// guarded runs fn, converting a panic into an error response. The engine
// already contains per-entry panics on its degrade ladder; this is the
// outer hull for everything else (protocol handling, frontend, result
// conversion) so one poisoned request can never take down the daemon or
// even its session.
func (s *Server) guarded(req *Request, fn func() *Response) (resp *Response) {
	defer func() {
		if rec := recover(); rec != nil {
			fmt.Fprintf(s.opts.Stderr, "patad: contained panic in %q request: %v\n%s",
				req.Op, rec, debug.Stack())
			resp = &Response{ID: req.ID, Op: req.Op, OK: false,
				Error: fmt.Sprintf("internal: contained panic: %v", rec)}
		}
	}()
	return fn()
}
