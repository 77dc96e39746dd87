//go:build linux

package shortsha

import (
	"crypto/sha256"
	"syscall"
	"testing"
)

// TestBatchReadsOnlyItsMessages: Batch reads its messages where they lie,
// so it must read no byte outside them. The batch is laid out in memory
// mapped between two inaccessible pages, once with the first message right
// after the lower page and once with the last message right before the
// upper one, so a kernel that loads a whole word past a message's end, or
// anything before a lane's start, faults. Every length 0-119 (every
// partial-word and padding shape of the sixteen lanes, and the lengths
// they leave to SHA-NI) at strides n, n+1, 67 and 128, in a batch of one
// lane group and one with pairs and a single behind it, on every path.
func TestBatchReadsOnlyItsMessages(t *testing.T) {
	page := syscall.Getpagesize()
	const maxK = Lanes + 3
	data := ((maxK-1)*128 + maxTail + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, page+data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	for _, guard := range [][]byte{mem[:page], mem[page+data:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	buf := mem[page : page+data]
	copy(buf, message(len(buf), 0x5a))
	var dst [maxK * Size]byte
	forEachPath(t, func(t *testing.T) {
		for n := 0; n <= maxTail; n++ {
			for _, stride := range []int{n, n + 1, 67, 128} {
				for _, k := range []int{Lanes, maxK} {
					span := (k-1)*stride + n
					for _, at := range []int{0, len(buf) - span} {
						msgs := buf[at : at+span]
						Batch(dst[:k*Size], msgs, stride, n, 2)
						for i := range k {
							want := sha256.Sum256(msgs[i*stride : i*stride+n])
							want = sha256.Sum256(want[:])
							if string(dst[i*Size:(i+1)*Size]) != string(want[:]) {
								t.Fatalf("Batch of %d × %d B at stride %d, offset %d: message %d = %x, want %x",
									k, n, stride, at, i, dst[i*Size:(i+1)*Size], want)
							}
						}
					}
				}
			}
		}
	})
}
