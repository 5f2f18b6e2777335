package core

import (
	"repro/internal/relation"
)

// This file is the pipelining of the segment loops. Each loop — the
// plan loop (PlanStream), the write loop (write) and the read loop
// (readVotes) — reads its source through readAhead, so the next
// segment's ingest overlaps the current segment's compute; the write
// loop also hands its marked segments to writeBehind, so the sinks
// (CSV egress) overlap the next segment's transform and embed.
//
// Both hand-offs are unbuffered: at most one segment is ahead of the
// loop and one behind it, whatever the source or the sink. Each helper
// goroutine is joined before the loop returns, so the source and the
// sinks are never touched after the call that owns them has returned.

// fetched is one src.Next result.
type fetched struct {
	seg *relation.Table
	err error
}

// aheadSegments reads a source on a helper goroutine, one segment ahead
// of the loop: the source's Next is called one at a time, in order, and
// not again after it has returned an error (io.EOF included). close
// must be called before the loop returns.
//
// Only the helper goroutine refers to the source, so a drained source
// (a SegmentReader's buffers and dictionaries, or the table behind
// Table.Segments) can be collected while the caller finishes its run —
// PlanStream's search, for one.
type aheadSegments struct {
	next chan fetched
	stop chan struct{}
	done chan struct{}
}

// readAhead starts reading src one segment ahead.
func readAhead(src Segments) *aheadSegments {
	a := &aheadSegments{next: make(chan fetched), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		for {
			seg, err := src.Next()
			select {
			case a.next <- fetched{seg, err}:
			case <-a.stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return a
}

// Next returns the next segment in source order. After the source's
// error (io.EOF included) it must not be called again.
func (a *aheadSegments) Next() (*relation.Table, error) {
	f := <-a.next
	return f.seg, f.err
}

// close stops the read-ahead and waits for a Next call in flight to
// return; the segment it yields is dropped.
func (a *aheadSegments) close() {
	close(a.stop)
	<-a.done
}

// sinkJob is one marked table bound for one output's sink.
type sinkJob struct {
	sink func(*relation.Table) error
	tbl  *relation.Table
}

// behindSinks runs sink jobs on a helper goroutine, one at a time in
// hand-off order, while the loop goes on with the next table. The first
// sink error stops it.
type behindSinks struct {
	jobs chan sinkJob
	fail chan struct{} // closed on the first sink error
	done chan struct{}
	err  error
}

// writeBehind starts the sink goroutine.
func writeBehind() *behindSinks {
	b := &behindSinks{jobs: make(chan sinkJob), fail: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		for j := range b.jobs {
			if err := j.sink(j.tbl); err != nil {
				b.err = err
				close(b.fail)
				return
			}
		}
	}()
	return b
}

// put hands tbl to sink once the previous job has finished; the loop
// must not touch tbl afterwards. It returns the error of an earlier job
// that failed instead.
func (b *behindSinks) put(sink func(*relation.Table) error, tbl *relation.Table) error {
	select {
	case b.jobs <- sinkJob{sink, tbl}:
		return nil
	case <-b.fail:
		return b.err
	}
}

// wait lets the last job finish, stops the goroutine and returns the
// first sink error; it must be called exactly once. Every job handed
// over precedes, in segment order, whatever the loop was doing when it
// stopped, so a sink error wins over the loop's own.
func (b *behindSinks) wait() error {
	close(b.jobs)
	<-b.done
	return b.err
}
