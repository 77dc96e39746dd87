package transport

import "sync"

// payloadPool recycles receive-side payload buffers. Every framed receive
// used to allocate its payload; under pipelined sessions that is one
// frame-sized allocation per batch, and batches arrive continuously. The
// pool closes the loop: the grid layer hands the buffer back once a frame
// has been fully decoded (decoders copy every sub-payload out, so the outer
// buffer is dead the moment decoding returns).
var payloadPool sync.Pool

// boxPool recycles the *[]byte boxes payloadPool stores its buffers in
// (sync.Pool wants pointer-shaped values), so handing a buffer back costs no
// allocation: getPayload returns the emptied box here and RecyclePayload
// takes one out.
var boxPool sync.Pool

// getPayload returns a length-n buffer for an incoming frame payload,
// reusing a recycled buffer when its capacity suffices. A pooled buffer that
// is too small for this frame is dropped for the GC instead of re-pooled, so
// a stream of growing frames cannot churn the pool.
func getPayload(n int) []byte {
	if v := payloadPool.Get(); v != nil {
		box := v.(*[]byte)
		buf := *box
		*box = nil
		boxPool.Put(box)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

// RecyclePayload returns a received frame's payload buffer to the pool.
//
// Ownership rule: the caller asserts that no reference into the buffer
// escapes — neither retained by the caller nor reachable through anything
// decoded from it. In this codebase that holds exactly at the batch-decode
// hand-off (decodeBatch copies all sub-payloads), and must NOT be applied to
// frames that are forwarded onward (the broker relays the original buffer)
// or whose payload is retained by a decoder. Recycling is a pure
// optimization: buffers that never come back are collected as usual, and
// byte accounting is untouched because counters are credited before any
// recycle point.
func RecyclePayload(p []byte) {
	if cap(p) == 0 {
		return
	}
	box, _ := boxPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = p
	payloadPool.Put(box)
}
