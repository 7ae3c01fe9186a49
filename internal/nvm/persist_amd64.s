#include "textflag.h"

// func persistLines(dst, src []uint64, lines []uint32)
TEXT ·persistLines(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ lines_base+48(FP), BX
	MOVQ lines_len+56(FP), CX
	TESTQ CX, CX
	JZ done
	XORQ DX, DX

loop:
	// Prefetch the source line eight entries ahead.
	LEAQ 8(DX), AX
	CMPQ AX, CX
	JAE copy
	MOVL (BX)(AX*4), R8
	SHLQ $6, R8
	PREFETCHT0 (SI)(R8*1)

copy:
	MOVL (BX)(DX*4), R8
	SHLQ $6, R8
	MOVOU 0(SI)(R8*1), X0
	MOVOU 16(SI)(R8*1), X1
	MOVOU 32(SI)(R8*1), X2
	MOVOU 48(SI)(R8*1), X3
	MOVNTO X0, 0(DI)(R8*1)
	MOVNTO X1, 16(DI)(R8*1)
	MOVNTO X2, 32(DI)(R8*1)
	MOVNTO X3, 48(DI)(R8*1)
	INCQ DX
	CMPQ DX, CX
	JB loop
	SFENCE

done:
	RET
