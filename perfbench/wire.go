package main

import (
	"io"
	"sync/atomic"

	"robsched/internal/dist"
)

// wireCounts tallies the coordinator side of every counted connection.
type wireCounts struct {
	bytesOut, bytesIn atomic.Int64
	writes, reads     atomic.Int64 // Write calls, and Read calls that returned data
}

type countingWriter struct {
	w io.WriteCloser
	c *wireCounts
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.writes.Add(1)
	cw.c.bytesOut.Add(int64(n))
	return n, err
}

func (cw countingWriter) Close() error { return cw.w.Close() }

type countingReader struct {
	r io.Reader
	c *wireCounts
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.reads.Add(1)
		cr.c.bytesIn.Add(int64(n))
	}
	return n, err
}

// countEndpoint wraps ep's transport halves so their traffic is counted in
// c, keeping Kill, Wait and the RTT hint the coordinator sizes its pipeline
// window from.
func countEndpoint(ep dist.Endpoint, c *wireCounts) dist.Endpoint {
	ep.W = countingWriter{ep.W, c}
	ep.R = countingReader{ep.R, c}
	return ep
}
