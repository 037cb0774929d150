package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsAPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newSchedule(w, 42, "open0"), newSchedule(w, 42, "open0"), newSchedule(w, 43, "open0")
		a.extend(500)
		b.extend(500)
		c.extend(500)
		same, differs := true, false
		for i := range a.ops {
			la, lb, lc := a.items[a.ops[i].item].line, b.items[b.ops[i].item].line, c.items[c.ops[i].item].line
			same = same && a.ops[i] == b.ops[i] && bytes.Equal(la, lb)
			differs = differs || !bytes.Equal(la, lc)
		}
		if !same {
			t.Errorf("%s: the same seed produced different schedules", w.name)
		}
		if !differs {
			t.Errorf("%s: different seeds produced the same schedule", w.name)
		}
	}
}

// TestOpenLoopHoldsAgainstServerThatNeverReads: a server that accepts the
// stream and never reads it must not slow the schedule — every operation
// is queued at its due time, and the stalled request stays cancellable.
func TestOpenLoopHoldsAgainstServerThatNeverReads(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns sync.WaitGroup
	held := make(chan net.Conn, 4)
	conns.Add(1)
	go func() {
		defer conns.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held <- c // accepted, never read
		}
	}()
	defer func() {
		ln.Close()
		conns.Wait()
		close(held)
		for c := range held {
			c.Close()
		}
	}()

	w := &workload{name: "stalled", streams: 1, views: []string{"paper"}, count: 64, rate: 100000}
	s := newSchedule(w, 1, "stall")
	const n = 100000 // 1s at 100000/s, ~15MB: more than the socket buffers take
	s.extend(n)
	ctx, cancel := context.WithCancel(context.Background())
	client := &http.Client{Transport: &http.Transport{}}
	q := newBodyQueue(0)
	done := make(chan *response, 1)
	go func() { done <- postStream(ctx, client, "http://"+ln.Addr().String()+"/stream/enact", q) }()

	start := time.Now()
	lags := feedOpenLoop(w, s, 0, n, start, q)
	elapsed := time.Since(start)
	if len(lags) != n {
		t.Fatalf("queued %d of %d operations", len(lags), n)
	}
	if want := w.due(n-1, 0); elapsed > want+200*time.Millisecond {
		t.Errorf("schedule of %v took %v against a stalled server", want, elapsed)
	}
	if p99 := quantile(lags, 0.99); p99 > genLagBoundMs {
		t.Errorf("generator lag p99 %.2fms exceeds %dms", p99, genLagBoundMs)
	}
	if q.queued() == 0 {
		t.Errorf("the server never read, yet nothing is left queued")
	}
	cancel()
	select {
	case r := <-done:
		if r.err == nil {
			t.Errorf("a cancelled stalled request reported no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled request did not return after cancellation")
	}
}

func TestBoundedBodyQueueBlocksUntilRead(t *testing.T) {
	q := newBodyQueue(4)
	if !q.push([]byte("abcd")) {
		t.Fatal("first push refused")
	}
	pushed := make(chan bool, 1)
	go func() { pushed <- q.push([]byte("efgh")) }()
	select {
	case <-pushed:
		t.Fatal("push into a full queue did not block")
	case <-time.After(50 * time.Millisecond):
	}
	buf := make([]byte, 16)
	if n, _ := q.Read(buf); string(buf[:n]) != "abcd" {
		t.Fatalf("read %q", buf[:n])
	}
	if !<-pushed {
		t.Fatal("blocked push failed after a read")
	}
	q.close()
	if n, _ := q.Read(buf); string(buf[:n]) != "efgh" {
		t.Fatalf("read %q", buf[:n])
	}
}
