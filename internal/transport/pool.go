package transport

import "sync"

// payloadPool recycles frame payload buffers. A frame's buffer is drawn with
// GetPayload — by the TCP receive path for an arriving frame, by the grid
// layer's batch and envelope encoders for a departing one — and handed back
// with RecyclePayload by whoever owns it once the frame is dead. On a pipe
// the buffer a sender encoded into is the one its receiver recycles, so the
// loop closes across the link; over TCP each endpoint closes two loops of its
// own, one for the frames it receives and one for the frames it sends.
//
// Ownership rule, stated once for every layer above: a frame buffer belongs
// to its receiver, and recycling it asserts that nothing reachable still
// points into it. On a link whose Send copies (Stats.SendCopies) the
// receiver is the kernel, which keeps nothing: the buffer returns to the
// sender when Send does, and the sender — the only party that can — may
// recycle it then. On every other link a sender must not touch a buffer
// after Send. The grid layer's frame decoders (decodeBatch, decodeRouted)
// make recycling a received frame safe by copying its sub-payloads into one
// private allocation per frame before the frame is recycled; every decoder
// of a message inside (assignments, uploads, window commits, the multiproof
// of a CBS response) then aliases that private copy freely, and the copy is
// never recycled. A frame that is forwarded onward (the broker relays the
// buffer it received) or whose payload a decoder retains must NOT be
// recycled. Recycling is a pure optimization: buffers that never come back
// are collected as usual, and byte accounting is untouched because counters
// are credited before any recycle point.
var payloadPool sync.Pool

// boxPool recycles the *[]byte boxes payloadPool stores its buffers in
// (sync.Pool wants pointer-shaped values), so handing a buffer back costs no
// allocation: GetPayload returns the emptied box here and RecyclePayload
// takes one out.
var boxPool sync.Pool

// GetPayload returns a length-n buffer for a frame payload, reusing a
// recycled buffer when its capacity suffices; the contents are unspecified.
// A pooled buffer that is too small for this frame is dropped for the GC
// instead of re-pooled, so a stream of growing frames cannot churn the pool.
func GetPayload(n int) []byte {
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

// RecyclePayload returns a dead frame's payload buffer to the pool; see
// payloadPool for who may do that, and when.
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
