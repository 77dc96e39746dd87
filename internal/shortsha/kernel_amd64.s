// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

//go:build amd64 && !purego

// The SHA-256 compressions under shortsha. The SHA-NI rounds are
// blockSHANI's from the Go distribution's
// crypto/internal/fips140/sha256/sha256block_amd64.s (the code its
// _asm/sha256block_amd64_shani.go generates, after S. Gulley et al., "New
// Instructions Supporting the Secure Hash Algorithm on Intel® Architecture
// Processors", July 2013), with the AVX moves replaced by their SSE2 forms,
// a block's message words loaded before its first round, the round
// constants at a 16-byte stride and the state passed as eight words.
// The sixteen-lane AVX-512 kernel after them, lanes16, is FIPS 180-4 §6.2.2
// written on vectors and has its own notes.
//
// Two lanes. SHA256RNDS2 reads its round inputs from X0 implicitly, so
// ROUNDS2 emits every live range of X0 first for lane A and then for lane B;
// lane A keeps blockSHANI's registers and lane B takes X9-X15. Each
// SHA256RNDS2 depends on the one before it in its own lane only, so the two
// chains overlap in the core.
//
// Registers: AX the round constants, SI and BX the two lanes' data, DX the
// end of lane A's, DI and R8 the two lanes' state words, CX the links a
// chain has left; X0 the message words plus constants, X8 the byte-swap
// mask. Lane A: X1 (ABEF) and X2 (CDGH) the state, X3-X6 the message
// schedule, X7 scratch. Lane B: X9, X10, X11-X14 and X15 likewise. block
// keeps lane A's saved state in X9 and X10, block2 keeps both lanes' on the
// frame, and a chain's link adds back the initial value from iv_abef.

#include "textflag.h"

// LOADSTATE reads the eight state words at p into the order SHA256RNDS2
// works in: DCBA, HGFE -> ABEF, CDGH.
#define LOADSTATE(p, abef, cdgh, tmp) \
	MOVOU	(p), abef; \
	MOVOU	16(p), cdgh; \
	PSHUFD	$0xb1, abef, abef; \
	PSHUFD	$0x1b, cdgh, cdgh; \
	MOVO	abef, tmp; \
	PALIGNR	$8, cdgh, abef; \
	PBLENDW	$0xf0, tmp, cdgh

// WORDORDER puts the state in abef and cdgh back in word order, H0-H3 in
// lo and H4-H7 in hi.
#define WORDORDER(abef, cdgh, lo, hi, tmp) \
	PSHUFD	$0x1b, abef, lo; \
	PSHUFD	$0xb1, cdgh, hi; \
	MOVO	lo, tmp; \
	PBLENDW	$0xf0, hi, lo; \
	PALIGNR	$8, tmp, hi

// STORESTATE is LOADSTATE's inverse.
#define STORESTATE(p, abef, cdgh, tmp) \
	WORDORDER(abef, cdgh, abef, cdgh, tmp); \
	MOVOU	abef, (p); \
	MOVOU	cdgh, 16(p)

// LOADMSG loads the block at p as sixteen big-endian message words.
#define LOADMSG(p, m0, m1, m2, m3) \
	MOVOU	(p), m0; \
	PSHUFB	X8, m0; \
	MOVOU	16(p), m1; \
	PSHUFB	X8, m1; \
	MOVOU	32(p), m2; \
	PSHUFB	X8, m2; \
	MOVOU	48(p), m3; \
	PSHUFB	X8, m3

// LINKMSG makes the state the message of a chain's next link — the digest
// in W0-W7, a 32-byte message's padding from link_pad in W8-W15 — and
// starts the link from the initial hash value.
#define LINKMSG(abef, cdgh, m0, m1, m2, m3, tmp) \
	WORDORDER(abef, cdgh, m0, m1, tmp); \
	MOVOU	link_pad<>+0(SB), m2; \
	MOVOU	link_pad<>+16(SB), m3; \
	MOVOU	iv_abef<>+0(SB), abef; \
	MOVOU	iv_abef<>+16(SB), cdgh

// QUAD runs rounds 4c..4c+3 on the schedule words in m; k is 16c.
#define QUAD(k, abef, cdgh, m) \
	MOVO	m, X0; \
	PADDD	k(AX), X0; \
	SHA256RNDS2	X0, abef, cdgh; \
	PSHUFD	$0x0e, X0, X0; \
	SHA256RNDS2	X0, cdgh, abef

// QUADSCHED is QUAD with one step of the message schedule (PALIGNR, PADDD,
// SHA256MSG2 into t) between its two halves, where blockSHANI puts it.
#define QUADSCHED(k, abef, cdgh, m, a, t, tmp) \
	MOVO	m, X0; \
	PADDD	k(AX), X0; \
	SHA256RNDS2	X0, abef, cdgh; \
	MOVO	m, tmp; \
	PALIGNR	$4, a, tmp; \
	PADDD	tmp, t; \
	SHA256MSG2	m, t; \
	PSHUFD	$0x0e, X0, X0; \
	SHA256RNDS2	X0, cdgh, abef

// ROUNDS1 runs the 64 rounds of lane A on the message in X3-X6.
#define ROUNDS1 \
	QUAD(0, X1, X2, X3); \
	QUAD(16, X1, X2, X4); \
	SHA256MSG1 X4, X3; \
	QUAD(32, X1, X2, X5); \
	SHA256MSG1 X5, X4; \
	QUADSCHED(48, X1, X2, X6, X5, X3, X7); \
	SHA256MSG1 X6, X5; \
	QUADSCHED(64, X1, X2, X3, X6, X4, X7); \
	SHA256MSG1 X3, X6; \
	QUADSCHED(80, X1, X2, X4, X3, X5, X7); \
	SHA256MSG1 X4, X3; \
	QUADSCHED(96, X1, X2, X5, X4, X6, X7); \
	SHA256MSG1 X5, X4; \
	QUADSCHED(112, X1, X2, X6, X5, X3, X7); \
	SHA256MSG1 X6, X5; \
	QUADSCHED(128, X1, X2, X3, X6, X4, X7); \
	SHA256MSG1 X3, X6; \
	QUADSCHED(144, X1, X2, X4, X3, X5, X7); \
	SHA256MSG1 X4, X3; \
	QUADSCHED(160, X1, X2, X5, X4, X6, X7); \
	SHA256MSG1 X5, X4; \
	QUADSCHED(176, X1, X2, X6, X5, X3, X7); \
	SHA256MSG1 X6, X5; \
	QUADSCHED(192, X1, X2, X3, X6, X4, X7); \
	SHA256MSG1 X3, X6; \
	QUADSCHED(208, X1, X2, X4, X3, X5, X7); \
	QUADSCHED(224, X1, X2, X5, X4, X6, X7); \
	QUAD(240, X1, X2, X6)

// ROUNDS2 runs the 64 rounds of both lanes, four at a time per lane.
#define ROUNDS2 \
	QUAD(0, X1, X2, X3); \
	QUAD(0, X9, X10, X11); \
	QUAD(16, X1, X2, X4); \
	SHA256MSG1 X4, X3; \
	QUAD(16, X9, X10, X12); \
	SHA256MSG1 X12, X11; \
	QUAD(32, X1, X2, X5); \
	SHA256MSG1 X5, X4; \
	QUAD(32, X9, X10, X13); \
	SHA256MSG1 X13, X12; \
	QUADSCHED(48, X1, X2, X6, X5, X3, X7); \
	SHA256MSG1 X6, X5; \
	QUADSCHED(48, X9, X10, X14, X13, X11, X15); \
	SHA256MSG1 X14, X13; \
	QUADSCHED(64, X1, X2, X3, X6, X4, X7); \
	SHA256MSG1 X3, X6; \
	QUADSCHED(64, X9, X10, X11, X14, X12, X15); \
	SHA256MSG1 X11, X14; \
	QUADSCHED(80, X1, X2, X4, X3, X5, X7); \
	SHA256MSG1 X4, X3; \
	QUADSCHED(80, X9, X10, X12, X11, X13, X15); \
	SHA256MSG1 X12, X11; \
	QUADSCHED(96, X1, X2, X5, X4, X6, X7); \
	SHA256MSG1 X5, X4; \
	QUADSCHED(96, X9, X10, X13, X12, X14, X15); \
	SHA256MSG1 X13, X12; \
	QUADSCHED(112, X1, X2, X6, X5, X3, X7); \
	SHA256MSG1 X6, X5; \
	QUADSCHED(112, X9, X10, X14, X13, X11, X15); \
	SHA256MSG1 X14, X13; \
	QUADSCHED(128, X1, X2, X3, X6, X4, X7); \
	SHA256MSG1 X3, X6; \
	QUADSCHED(128, X9, X10, X11, X14, X12, X15); \
	SHA256MSG1 X11, X14; \
	QUADSCHED(144, X1, X2, X4, X3, X5, X7); \
	SHA256MSG1 X4, X3; \
	QUADSCHED(144, X9, X10, X12, X11, X13, X15); \
	SHA256MSG1 X12, X11; \
	QUADSCHED(160, X1, X2, X5, X4, X6, X7); \
	SHA256MSG1 X5, X4; \
	QUADSCHED(160, X9, X10, X13, X12, X14, X15); \
	SHA256MSG1 X13, X12; \
	QUADSCHED(176, X1, X2, X6, X5, X3, X7); \
	SHA256MSG1 X6, X5; \
	QUADSCHED(176, X9, X10, X14, X13, X11, X15); \
	SHA256MSG1 X14, X13; \
	QUADSCHED(192, X1, X2, X3, X6, X4, X7); \
	SHA256MSG1 X3, X6; \
	QUADSCHED(192, X9, X10, X11, X14, X12, X15); \
	SHA256MSG1 X11, X14; \
	QUADSCHED(208, X1, X2, X4, X3, X5, X7); \
	QUADSCHED(208, X9, X10, X12, X11, X13, X15); \
	QUADSCHED(224, X1, X2, X5, X4, X6, X7); \
	QUADSCHED(224, X9, X10, X13, X12, X14, X15); \
	QUAD(240, X1, X2, X6); \
	QUAD(240, X9, X10, X14)

// func block(h *[8]uint32, p []byte)
TEXT ·block(SB), NOSPLIT, $0-32
	MOVQ	h+0(FP), DI
	MOVQ	p_base+8(FP), SI
	MOVQ	p_len+16(FP), DX
	ANDQ	$-64, DX
	JZ	done
	ADDQ	SI, DX
	LOADSTATE(DI, X1, X2, X7)
	MOVOU	flip_mask<>(SB), X8
	LEAQ	k256<>(SB), AX

loop:
	MOVO	X1, X9
	MOVO	X2, X10
	LOADMSG(SI, X3, X4, X5, X6)
	ROUNDS1
	PADDD	X9, X1
	PADDD	X10, X2
	ADDQ	$64, SI
	CMPQ	SI, DX
	JNE	loop
	STORESTATE(DI, X1, X2, X7)

done:
	RET

// func block2(h0, h1 *[8]uint32, p0, p1 []byte)
TEXT ·block2(SB), NOSPLIT, $64-64
	MOVQ	h0+0(FP), DI
	MOVQ	h1+8(FP), R8
	MOVQ	p0_base+16(FP), SI
	MOVQ	p0_len+24(FP), DX
	MOVQ	p1_base+40(FP), BX
	ANDQ	$-64, DX
	JZ	done
	ADDQ	SI, DX
	LOADSTATE(DI, X1, X2, X7)
	LOADSTATE(R8, X9, X10, X15)
	MOVOU	flip_mask<>(SB), X8
	LEAQ	k256<>(SB), AX

loop:
	MOVOU	X1, 0(SP)
	MOVOU	X2, 16(SP)
	MOVOU	X9, 32(SP)
	MOVOU	X10, 48(SP)
	LOADMSG(SI, X3, X4, X5, X6)
	LOADMSG(BX, X11, X12, X13, X14)
	ROUNDS2
	MOVOU	0(SP), X0
	PADDD	X0, X1
	MOVOU	16(SP), X0
	PADDD	X0, X2
	MOVOU	32(SP), X0
	PADDD	X0, X9
	MOVOU	48(SP), X0
	PADDD	X0, X10
	ADDQ	$64, SI
	ADDQ	$64, BX
	CMPQ	SI, DX
	JNE	loop
	STORESTATE(DI, X1, X2, X7)
	STORESTATE(R8, X9, X10, X15)

done:
	RET

// func chain(h *[8]uint32, links int)
TEXT ·chain(SB), NOSPLIT, $0-16
	MOVQ	h+0(FP), DI
	MOVQ	links+8(FP), CX
	TESTQ	CX, CX
	JLE	done
	LOADSTATE(DI, X1, X2, X7)
	LEAQ	k256<>(SB), AX

loop:
	LINKMSG(X1, X2, X3, X4, X5, X6, X7)
	ROUNDS1
	PADDD	iv_abef<>+0(SB), X1
	PADDD	iv_abef<>+16(SB), X2
	DECQ	CX
	JNZ	loop
	STORESTATE(DI, X1, X2, X7)

done:
	RET

// func chain2(h0, h1 *[8]uint32, links int)
TEXT ·chain2(SB), NOSPLIT, $0-24
	MOVQ	h0+0(FP), DI
	MOVQ	h1+8(FP), R8
	MOVQ	links+16(FP), CX
	TESTQ	CX, CX
	JLE	done
	LOADSTATE(DI, X1, X2, X7)
	LOADSTATE(R8, X9, X10, X15)
	LEAQ	k256<>(SB), AX

loop:
	LINKMSG(X1, X2, X3, X4, X5, X6, X7)
	LINKMSG(X9, X10, X11, X12, X13, X14, X15)
	ROUNDS2
	PADDD	iv_abef<>+0(SB), X1
	PADDD	iv_abef<>+16(SB), X2
	PADDD	iv_abef<>+0(SB), X9
	PADDD	iv_abef<>+16(SB), X10
	DECQ	CX
	JNZ	loop
	STORESTATE(DI, X1, X2, X7)
	STORESTATE(R8, X9, X10, X15)

done:
	RET

// func kernelSupported() bool
TEXT ·kernelSupported(SB), NOSPLIT, $0-1
	MOVB	$0, ret+0(FP)
	XORL	AX, AX
	CPUID
	CMPL	AX, $7
	JB	done
	MOVL	$1, AX
	CPUID
	ANDL	$0x80200, CX // SSSE3 (bit 9) and SSE4.1 (bit 19)
	CMPL	CX, $0x80200
	JNE	done
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	BTL	$29, BX // SHA
	JCC	done
	MOVB	$1, ret+0(FP)

done:
	RET

// Sixteen lanes. lanes16 runs sixteen messages through the rounds in one
// instruction stream with AVX-512: each ZMM register holds one 32-bit word
// for all sixteen lanes, so a round is the FIPS 180-4 §6.2.2 round written
// once on vectors, with Σ and σ as three VPRORD/VPSRLD joined by one
// three-way VPTERNLOGD XOR, Ch and Maj as one VPTERNLOGD each, and K[t]
// broadcast from k256 (.BCST). The lanes never interact, so nothing here is
// serial across messages; the bound is the vector shifts' issue rate.
//
// Padding in registers. Every lane's message has the same length n (4 to
// 119 bytes), so one padded layout serves all sixteen: the n/4 whole words
// are gathered where the message lies, word n/4 holds the last n%4 bytes
// and the 1 bit, the words after it are zero but for the bit length in the
// last one, and a message of more than 55 bytes takes a second block. Word
// n/4 is the same for every lane but its message bytes, so it is built
// once: 0x80000000 when n%4 is 0, else the word ending at byte n — inside
// the message, since n >= 4 — shifted up past the bytes before it, with the
// 1 bit behind them. No byte outside msgs[i*stride : i*stride+n] is read.
//
// Registers: Z0-Z7 the state words a-h, renamed round by round instead of
// moved (ROUND16's argument lists rotate them); Z8-Z23 the sixteen message
// words W[t mod 16], the schedule overwriting each in place; Z24-Z26
// scratch; Z27 word n/4; Z28 the gather offsets (lane*stride), Z29 the
// byte-swap mask, Z30 the scatter offsets (lane*32); K2 all ones, copied
// into K1 before every gather and scatter, which clear their mask. AX the
// round constants, BX the schedule groups left, CX the blocks left, DX the
// links left, SI the current block of lane 0's message, DI the digests, R9
// the whole-word bytes from SI on (negative once word n/4 is behind), R10
// the bit length; the frame holds the state a block adds back at its end.

// ROUND is round t on lanes of state (a, ..., h) and message word w, whose
// constant is at k(AX): h becomes the new a and d the new e.
#define ROUND(a, b, c, d, e, f, g, h, w, k) \
	VPADDD.BCST	k(AX), w, Z24; \
	VPADDD	Z24, h, h; \
	VPRORD	$6, e, Z24; \
	VPRORD	$11, e, Z25; \
	VPRORD	$25, e, Z26; \
	VPTERNLOGD	$0x96, Z26, Z25, Z24; \
	VPADDD	Z24, h, h; \
	VMOVDQA32	e, Z25; \
	VPTERNLOGD	$0xca, g, f, Z25; \
	VPADDD	Z25, h, h; \
	VPADDD	h, d, d; \
	VPRORD	$2, a, Z24; \
	VPRORD	$13, a, Z25; \
	VPRORD	$22, a, Z26; \
	VPTERNLOGD	$0x96, Z26, Z25, Z24; \
	VPADDD	Z24, h, h; \
	VMOVDQA32	a, Z25; \
	VPTERNLOGD	$0xe8, c, b, Z25; \
	VPADDD	Z25, h, h

// SCHED computes W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16] into
// wt, the register that held W[t-16].
#define SCHED(wt, w15, w7, w2) \
	VPRORD	$7, w15, Z24; \
	VPRORD	$18, w15, Z25; \
	VPSRLD	$3, w15, Z26; \
	VPTERNLOGD	$0x96, Z26, Z25, Z24; \
	VPADDD	Z24, wt, wt; \
	VPRORD	$17, w2, Z24; \
	VPRORD	$19, w2, Z25; \
	VPSRLD	$10, w2, Z26; \
	VPTERNLOGD	$0x96, Z26, Z25, Z24; \
	VPADDD	Z24, wt, wt; \
	VPADDD	w7, wt, wt

// ROUND16 runs sixteen rounds on the message words in place: after them
// the state is back in Z0-Z7 in order.
#define ROUND16 \
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, 0); \
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z9, 4); \
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z10, 8); \
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z11, 12); \
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z12, 16); \
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z13, 20); \
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z14, 24); \
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z15, 28); \
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 32); \
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 36); \
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 40); \
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 44); \
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 48); \
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 52); \
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 56); \
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 60)

// SCHEDROUND16 is ROUND16 with the schedule step before each round.
#define SCHEDROUND16 \
	SCHED(Z8, Z9, Z17, Z22); \
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, 0); \
	SCHED(Z9, Z10, Z18, Z23); \
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z9, 4); \
	SCHED(Z10, Z11, Z19, Z8); \
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z10, 8); \
	SCHED(Z11, Z12, Z20, Z9); \
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z11, 12); \
	SCHED(Z12, Z13, Z21, Z10); \
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z12, 16); \
	SCHED(Z13, Z14, Z22, Z11); \
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z13, 20); \
	SCHED(Z14, Z15, Z23, Z12); \
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z14, 24); \
	SCHED(Z15, Z16, Z8, Z13); \
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z15, 28); \
	SCHED(Z16, Z17, Z9, Z14); \
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 32); \
	SCHED(Z17, Z18, Z10, Z15); \
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 36); \
	SCHED(Z18, Z19, Z11, Z16); \
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 40); \
	SCHED(Z19, Z20, Z12, Z17); \
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 44); \
	SCHED(Z20, Z21, Z13, Z18); \
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 48); \
	SCHED(Z21, Z22, Z14, Z19); \
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 52); \
	SCHED(Z22, Z23, Z15, Z20); \
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 56); \
	SCHED(Z23, Z8, Z16, Z21); \
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 60)

// GATHER loads the message word at offset off of every lane's block at SI,
// big-endian.
#define GATHER(off, w) \
	KMOVW	K2, K1; \
	VPGATHERDD	off(SI)(Z28*1), K1, w; \
	VPSHUFB	Z29, w, w

// SCATTER writes a state word into offset off of every lane's digest,
// big-endian.
#define SCATTER(off, s) \
	VPSHUFB	Z29, s, s; \
	KMOVW	K2, K1; \
	VPSCATTERDD	s, K1, off(DI)(Z30*1)

// WORD gathers the block's word at offset off into w when it is a whole
// word of the message, and otherwise jumps to tail, which puts word n/4 in
// w and ends the block's words: the ones after it stay zero but for the bit
// length.
#define WORD(off, w, tail) \
	CMPQ	R9, $(off+4); \
	JLT	tail; \
	GATHER(off, w)

// func lanes16(dst *[Lanes * Size]byte, msgs *byte, stride, n, links int)
TEXT ·lanes16(SB), 0, $512-40
	MOVQ	dst+0(FP), DI
	MOVQ	msgs+8(FP), SI
	MOVQ	stride+16(FP), AX
	MOVQ	n+24(FP), R9
	MOVQ	links+32(FP), DX
	KXNORW	K2, K2, K2
	VMOVDQU32	lane_index<>(SB), Z30
	VPBROADCASTD	AX, Z28
	VPMULLD	Z30, Z28, Z28
	VPSLLD	$5, Z30, Z30
	VBROADCASTI32X4	flip_mask<>(SB), Z29

	// Z27 = word n/4: the 1 bit behind the n%4 bytes left, and those bytes
	// from the word that ends the message, shifted up by 32 - 8(n%4).
	MOVQ	R9, CX
	ANDQ	$3, CX
	SHLQ	$3, CX
	MOVL	$0x80000000, R10
	SHRL	CX, R10
	VPBROADCASTD	R10, Z27
	TESTQ	CX, CX
	JZ	layout
	LEAQ	-4(SI)(R9*1), R11
	KMOVW	K2, K1
	VPXORD	Z26, Z26, Z26
	VPGATHERDD	(R11)(Z28*1), K1, Z26
	VPSHUFB	Z29, Z26, Z26
	NEGQ	CX
	ADDQ	$32, CX
	VPBROADCASTD	CX, Z25
	VPSLLVD	Z25, Z26, Z26
	VPORD	Z26, Z27, Z27

layout:
	MOVQ	R9, R10
	SHLQ	$3, R10
	MOVQ	$1, CX
	CMPQ	R9, $55
	JLE	whole
	MOVQ	$2, CX

whole:
	ANDQ	$-4, R9

	VPBROADCASTD	iv<>+0(SB), Z0
	VPBROADCASTD	iv<>+4(SB), Z1
	VPBROADCASTD	iv<>+8(SB), Z2
	VPBROADCASTD	iv<>+12(SB), Z3
	VPBROADCASTD	iv<>+16(SB), Z4
	VPBROADCASTD	iv<>+20(SB), Z5
	VPBROADCASTD	iv<>+24(SB), Z6
	VPBROADCASTD	iv<>+28(SB), Z7

pass:
	TESTQ	CX, CX
	JZ	link

	VMOVDQU32	Z0, 0(SP)
	VMOVDQU32	Z1, 64(SP)
	VMOVDQU32	Z2, 128(SP)
	VMOVDQU32	Z3, 192(SP)
	VMOVDQU32	Z4, 256(SP)
	VMOVDQU32	Z5, 320(SP)
	VMOVDQU32	Z6, 384(SP)
	VMOVDQU32	Z7, 448(SP)
	VPXORD	Z8, Z8, Z8
	VPXORD	Z9, Z9, Z9
	VPXORD	Z10, Z10, Z10
	VPXORD	Z11, Z11, Z11
	VPXORD	Z12, Z12, Z12
	VPXORD	Z13, Z13, Z13
	VPXORD	Z14, Z14, Z14
	VPXORD	Z15, Z15, Z15
	VPXORD	Z16, Z16, Z16
	VPXORD	Z17, Z17, Z17
	VPXORD	Z18, Z18, Z18
	VPXORD	Z19, Z19, Z19
	VPXORD	Z20, Z20, Z20
	VPXORD	Z21, Z21, Z21
	VPXORD	Z22, Z22, Z22
	VPXORD	Z23, Z23, Z23
	TESTQ	R9, R9
	JS	padded
	WORD(0, Z8, tail0)
	WORD(4, Z9, tail1)
	WORD(8, Z10, tail2)
	WORD(12, Z11, tail3)
	WORD(16, Z12, tail4)
	WORD(20, Z13, tail5)
	WORD(24, Z14, tail6)
	WORD(28, Z15, tail7)
	WORD(32, Z16, tail8)
	WORD(36, Z17, tail9)
	WORD(40, Z18, tail10)
	WORD(44, Z19, tail11)
	WORD(48, Z20, tail12)
	WORD(52, Z21, tail13)
	WORD(56, Z22, tail14)
	WORD(60, Z23, tail15)
	JMP	padded

tail0:
	VMOVDQA32	Z27, Z8
	JMP	padded

tail1:
	VMOVDQA32	Z27, Z9
	JMP	padded

tail2:
	VMOVDQA32	Z27, Z10
	JMP	padded

tail3:
	VMOVDQA32	Z27, Z11
	JMP	padded

tail4:
	VMOVDQA32	Z27, Z12
	JMP	padded

tail5:
	VMOVDQA32	Z27, Z13
	JMP	padded

tail6:
	VMOVDQA32	Z27, Z14
	JMP	padded

tail7:
	VMOVDQA32	Z27, Z15
	JMP	padded

tail8:
	VMOVDQA32	Z27, Z16
	JMP	padded

tail9:
	VMOVDQA32	Z27, Z17
	JMP	padded

tail10:
	VMOVDQA32	Z27, Z18
	JMP	padded

tail11:
	VMOVDQA32	Z27, Z19
	JMP	padded

tail12:
	VMOVDQA32	Z27, Z20
	JMP	padded

tail13:
	VMOVDQA32	Z27, Z21
	JMP	padded

tail14:
	VMOVDQA32	Z27, Z22
	JMP	padded

tail15:
	VMOVDQA32	Z27, Z23

padded:
	// The last block ends in the bit length; its word 14 is zero.
	CMPQ	CX, $1
	JNE	next
	VPBROADCASTD	R10, Z23

next:
	ADDQ	$64, SI
	SUBQ	$64, R9
	DECQ	CX
	JMP	rounds

link:
	// The next link's message is the digest, W0-W7 = the state words, and
	// a 32-byte message's padding; it starts from the initial value.
	VMOVDQA32	Z0, Z8
	VMOVDQA32	Z1, Z9
	VMOVDQA32	Z2, Z10
	VMOVDQA32	Z3, Z11
	VMOVDQA32	Z4, Z12
	VMOVDQA32	Z5, Z13
	VMOVDQA32	Z6, Z14
	VMOVDQA32	Z7, Z15
	VPBROADCASTD	link_pad<>+0(SB), Z16
	VPXORD	Z17, Z17, Z17
	VPXORD	Z18, Z18, Z18
	VPXORD	Z19, Z19, Z19
	VPXORD	Z20, Z20, Z20
	VPXORD	Z21, Z21, Z21
	VPXORD	Z22, Z22, Z22
	VPBROADCASTD	link_pad<>+28(SB), Z23
	VPBROADCASTD	iv<>+0(SB), Z0
	VMOVDQU32	Z0, 0(SP)
	VPBROADCASTD	iv<>+4(SB), Z1
	VMOVDQU32	Z1, 64(SP)
	VPBROADCASTD	iv<>+8(SB), Z2
	VMOVDQU32	Z2, 128(SP)
	VPBROADCASTD	iv<>+12(SB), Z3
	VMOVDQU32	Z3, 192(SP)
	VPBROADCASTD	iv<>+16(SB), Z4
	VMOVDQU32	Z4, 256(SP)
	VPBROADCASTD	iv<>+20(SB), Z5
	VMOVDQU32	Z5, 320(SP)
	VPBROADCASTD	iv<>+24(SB), Z6
	VMOVDQU32	Z6, 384(SP)
	VPBROADCASTD	iv<>+28(SB), Z7
	VMOVDQU32	Z7, 448(SP)
	DECQ	DX

rounds:
	LEAQ	k256<>(SB), AX
	ROUND16
	MOVQ	$3, BX

sched:
	ADDQ	$64, AX
	SCHEDROUND16
	DECQ	BX
	JNZ	sched
	VPADDD	0(SP), Z0, Z0
	VPADDD	64(SP), Z1, Z1
	VPADDD	128(SP), Z2, Z2
	VPADDD	192(SP), Z3, Z3
	VPADDD	256(SP), Z4, Z4
	VPADDD	320(SP), Z5, Z5
	VPADDD	384(SP), Z6, Z6
	VPADDD	448(SP), Z7, Z7
	TESTQ	CX, CX
	JNZ	pass
	TESTQ	DX, DX
	JNZ	pass

	SCATTER(0, Z0)
	SCATTER(4, Z1)
	SCATTER(8, Z2)
	SCATTER(12, Z3)
	SCATTER(16, Z4)
	SCATTER(20, Z5)
	SCATTER(24, Z6)
	SCATTER(28, Z7)
	VZEROUPPER
	RET

// func lanes16Supported() bool
TEXT ·lanes16Supported(SB), NOSPLIT, $0-1
	MOVB	$0, ret+0(FP)
	XORL	AX, AX
	CPUID
	CMPL	AX, $7
	JB	nolanes
	MOVL	$1, AX
	CPUID
	BTL	$27, CX // OSXSAVE: XGETBV is available
	JCC	nolanes
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x40010000, BX // AVX512F (bit 16) and AVX512BW (bit 30)
	CMPL	BX, $0x40010000
	JNE	nolanes
	XORL	CX, CX
	XGETBV
	ANDL	$0xe6, AX // XCR0: SSE, AVX, opmask, ZMM0-15 upper halves, ZMM16-31
	CMPL	AX, $0xe6
	JNE	nolanes
	MOVB	$1, ret+0(FP)

nolanes:
	RET

// iv is SHA-256's initial hash value, FIPS 180-4 §5.3.3, in word order.
DATA iv<>+0(SB)/4, $0x6a09e667
DATA iv<>+4(SB)/4, $0xbb67ae85
DATA iv<>+8(SB)/4, $0x3c6ef372
DATA iv<>+12(SB)/4, $0xa54ff53a
DATA iv<>+16(SB)/4, $0x510e527f
DATA iv<>+20(SB)/4, $0x9b05688c
DATA iv<>+24(SB)/4, $0x1f83d9ab
DATA iv<>+28(SB)/4, $0x5be0cd19
GLOBL iv<>(SB), RODATA|NOPTR, $32

// lane_index is 0, 1, ..., 15, one dword per lane.
DATA lane_index<>+0(SB)/4, $0
DATA lane_index<>+4(SB)/4, $1
DATA lane_index<>+8(SB)/4, $2
DATA lane_index<>+12(SB)/4, $3
DATA lane_index<>+16(SB)/4, $4
DATA lane_index<>+20(SB)/4, $5
DATA lane_index<>+24(SB)/4, $6
DATA lane_index<>+28(SB)/4, $7
DATA lane_index<>+32(SB)/4, $8
DATA lane_index<>+36(SB)/4, $9
DATA lane_index<>+40(SB)/4, $10
DATA lane_index<>+44(SB)/4, $11
DATA lane_index<>+48(SB)/4, $12
DATA lane_index<>+52(SB)/4, $13
DATA lane_index<>+56(SB)/4, $14
DATA lane_index<>+60(SB)/4, $15
GLOBL lane_index<>(SB), RODATA|NOPTR, $64

// flip_mask byte-swaps each 32-bit word.
DATA flip_mask<>+0(SB)/8, $0x0405060700010203
DATA flip_mask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flip_mask<>(SB), RODATA|NOPTR, $16

// iv_abef is SHA-256's initial hash value (FIPS 180-4 §5.3.3) in
// LOADSTATE's order: H5 H4 H1 H0, then H7 H6 H3 H2.
DATA iv_abef<>+0(SB)/8, $0x510e527f9b05688c
DATA iv_abef<>+8(SB)/8, $0x6a09e667bb67ae85
DATA iv_abef<>+16(SB)/8, $0x1f83d9ab5be0cd19
DATA iv_abef<>+24(SB)/8, $0x3c6ef372a54ff53a
GLOBL iv_abef<>(SB), RODATA|NOPTR, $32

// link_pad is message words W8-W15 of every 32-byte message: the 1 bit,
// zeros, and the length, 256 bits.
DATA link_pad<>+0(SB)/8, $0x0000000080000000
DATA link_pad<>+8(SB)/8, $0
DATA link_pad<>+16(SB)/8, $0
DATA link_pad<>+24(SB)/8, $0x0000010000000000
GLOBL link_pad<>(SB), RODATA|NOPTR, $32

// k256 holds the 64 round constants, four to a 16-byte row.
DATA k256<>+0(SB)/4, $0x428a2f98
DATA k256<>+4(SB)/4, $0x71374491
DATA k256<>+8(SB)/4, $0xb5c0fbcf
DATA k256<>+12(SB)/4, $0xe9b5dba5
DATA k256<>+16(SB)/4, $0x3956c25b
DATA k256<>+20(SB)/4, $0x59f111f1
DATA k256<>+24(SB)/4, $0x923f82a4
DATA k256<>+28(SB)/4, $0xab1c5ed5
DATA k256<>+32(SB)/4, $0xd807aa98
DATA k256<>+36(SB)/4, $0x12835b01
DATA k256<>+40(SB)/4, $0x243185be
DATA k256<>+44(SB)/4, $0x550c7dc3
DATA k256<>+48(SB)/4, $0x72be5d74
DATA k256<>+52(SB)/4, $0x80deb1fe
DATA k256<>+56(SB)/4, $0x9bdc06a7
DATA k256<>+60(SB)/4, $0xc19bf174
DATA k256<>+64(SB)/4, $0xe49b69c1
DATA k256<>+68(SB)/4, $0xefbe4786
DATA k256<>+72(SB)/4, $0x0fc19dc6
DATA k256<>+76(SB)/4, $0x240ca1cc
DATA k256<>+80(SB)/4, $0x2de92c6f
DATA k256<>+84(SB)/4, $0x4a7484aa
DATA k256<>+88(SB)/4, $0x5cb0a9dc
DATA k256<>+92(SB)/4, $0x76f988da
DATA k256<>+96(SB)/4, $0x983e5152
DATA k256<>+100(SB)/4, $0xa831c66d
DATA k256<>+104(SB)/4, $0xb00327c8
DATA k256<>+108(SB)/4, $0xbf597fc7
DATA k256<>+112(SB)/4, $0xc6e00bf3
DATA k256<>+116(SB)/4, $0xd5a79147
DATA k256<>+120(SB)/4, $0x06ca6351
DATA k256<>+124(SB)/4, $0x14292967
DATA k256<>+128(SB)/4, $0x27b70a85
DATA k256<>+132(SB)/4, $0x2e1b2138
DATA k256<>+136(SB)/4, $0x4d2c6dfc
DATA k256<>+140(SB)/4, $0x53380d13
DATA k256<>+144(SB)/4, $0x650a7354
DATA k256<>+148(SB)/4, $0x766a0abb
DATA k256<>+152(SB)/4, $0x81c2c92e
DATA k256<>+156(SB)/4, $0x92722c85
DATA k256<>+160(SB)/4, $0xa2bfe8a1
DATA k256<>+164(SB)/4, $0xa81a664b
DATA k256<>+168(SB)/4, $0xc24b8b70
DATA k256<>+172(SB)/4, $0xc76c51a3
DATA k256<>+176(SB)/4, $0xd192e819
DATA k256<>+180(SB)/4, $0xd6990624
DATA k256<>+184(SB)/4, $0xf40e3585
DATA k256<>+188(SB)/4, $0x106aa070
DATA k256<>+192(SB)/4, $0x19a4c116
DATA k256<>+196(SB)/4, $0x1e376c08
DATA k256<>+200(SB)/4, $0x2748774c
DATA k256<>+204(SB)/4, $0x34b0bcb5
DATA k256<>+208(SB)/4, $0x391c0cb3
DATA k256<>+212(SB)/4, $0x4ed8aa4a
DATA k256<>+216(SB)/4, $0x5b9cca4f
DATA k256<>+220(SB)/4, $0x682e6ff3
DATA k256<>+224(SB)/4, $0x748f82ee
DATA k256<>+228(SB)/4, $0x78a5636f
DATA k256<>+232(SB)/4, $0x84c87814
DATA k256<>+236(SB)/4, $0x8cc70208
DATA k256<>+240(SB)/4, $0x90befffa
DATA k256<>+244(SB)/4, $0xa4506ceb
DATA k256<>+248(SB)/4, $0xbef9a3f7
DATA k256<>+252(SB)/4, $0xc67178f2
GLOBL k256<>(SB), RODATA|NOPTR, $256
