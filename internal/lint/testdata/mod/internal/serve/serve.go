// Package serve exercises the ctxleak check: worker goroutines must keep a
// cancellation arm on every blocking channel operation.
package serve

import "context"

// ctxleak: a bare send in a goroutine blocks forever once the receiver is
// cancelled.
func badSend(out chan int) {
	go func() {
		out <- 1 // want ctxleak
	}()
}

// ctxleak: a select in which every arm can block forever.
func badSelect(a, b chan int) {
	go func() {
		select { // want ctxleak
		case <-a:
		case b <- 1:
		}
	}()
}

// pump is only ever run on a goroutine (see badReachable); its bare send is
// a leak even though the go statement is in another function.
func pump(ch chan int) {
	ch <- 2 // want ctxleak
}

// ctxleak: reachability through the call graph.
func badReachable(ch chan int) {
	go pump(ch)
}

// ctxleak: the sanctioned shape — the blocking send shares a select with a
// ctx.Done arm.
func okSelect(ctx context.Context, out chan int) {
	go func() {
		select {
		case out <- 1:
		case <-ctx.Done():
		}
	}()
}

// ctxleak: waiting on a done/abort channel is itself the cancellation wait.
func okDoneWait(done chan struct{}) {
	go func() {
		<-done
	}()
}

// ctxleak: a suppressed case — the channel is buffered by construction, so
// the send cannot block.
func okBufferedAllowed(out chan int) {
	go func() {
		//lint:allow ctxleak testdata: channel is buffered with capacity for every worker
		out <- 1
	}()
}
