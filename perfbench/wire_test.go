package main

import (
	"bytes"
	"io"
	"testing"
	"time"

	"robsched/internal/dist"
)

func TestCountEndpointKeepsRTTAndCountsBytes(t *testing.T) {
	pr, pw := io.Pipe()
	killed := false
	ep := countEndpoint(dist.Endpoint{W: pw, R: pr, Kill: func() { killed = true }, RTT: 3 * time.Millisecond}, new(wireCounts))
	if ep.RTT != 3*time.Millisecond {
		t.Errorf("RTT %v, want 3ms", ep.RTT)
	}
	ep.Kill()
	if !killed {
		t.Error("Kill not kept")
	}

	c := new(wireCounts)
	pr, pw = io.Pipe()
	ep = countEndpoint(dist.Endpoint{W: pw, R: pr}, c)
	chunks := [][]byte{[]byte("frame-one"), bytes.Repeat([]byte{7}, 4096), {1}}
	var want int64
	for _, ch := range chunks {
		want += int64(len(ch))
	}
	written := make(chan error, 1)
	go func() {
		for _, ch := range chunks {
			if _, err := ep.W.Write(ch); err != nil {
				written <- err
				return
			}
		}
		written <- ep.W.Close()
	}()
	got, err := io.ReadAll(ep.R)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != want {
		t.Fatalf("read %d bytes, want %d", len(got), want)
	}
	if c.bytesOut.Load() != want || c.bytesIn.Load() != want {
		t.Errorf("counted %d out, %d in; want %d each", c.bytesOut.Load(), c.bytesIn.Load(), want)
	}
	if c.writes.Load() != int64(len(chunks)) {
		t.Errorf("counted %d writes, want %d", c.writes.Load(), len(chunks))
	}
	if r := c.reads.Load(); r < int64(len(chunks)) {
		t.Errorf("counted %d reads for %d pipe writes", r, len(chunks))
	}
}
