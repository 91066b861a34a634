#include "textflag.h"

// AVX kernels behind useAVX2. Every 256-bit lane holds one output element
// and receives that element's products in the order the Go loop in
// tensor.go adds them; a multiply and the add that consumes it are always
// two instructions (VMULPD, VADDPD), never a fused VFMADD, so each lane
// rounds exactly as the scalar code does. The ReLU epilogues compute each
// element exactly as the Go expression does, NaN and signed zeros
// included.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulVec8(a, v, dst []float64)
//
// Eight rows per pass, rows 0-3 accumulating in Y12 and rows 4-7 in Y13.
// Each 4×4 block of a row quartet is transposed into four column vectors:
// the low halves of rows 0|2 and 1|3 (and likewise the high halves) are
// loaded as 128-bit pairs, and the in-lane VUNPCKLPD/VUNPCKHPD of a pair
// yields columns j and j+1 in row order. The column vectors are multiplied
// by the broadcast v[j] and added to the accumulators in ascending j.
//
// Registers: SI rows 0-3 and DI rows 4-7 of the group at the current
// column, DX the row stride in bytes and R8 three strides, R11 &v[0] and
// BX &v[j], CX the column blocks left, R9 the group's first row, R10 the
// column blocks per row, R12 the group's dst and R13 the groups left. The
// loads are half-row (128-bit) so that the transpose costs only the four
// in-lane unpacks on the shuffle port; full-row loads would need two
// VPERM2F128 more per block.
TEXT ·mulVec8(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), R9
	MOVQ v_base+24(FP), R11
	MOVQ v_len+32(FP), DX
	MOVQ dst_base+48(FP), R12
	MOVQ dst_len+56(FP), R13
	SHRQ $3, R13
	JZ   mv_done
	MOVQ DX, R10
	SHRQ $2, R10
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R8

mv_group:
	MOVQ   R9, SI
	LEAQ   (R9)(DX*4), DI
	MOVQ   R11, BX
	MOVQ   R10, CX
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	TESTQ  CX, CX
	JZ     mv_store

mv_block:
	VBROADCASTSD (BX), Y8
	VBROADCASTSD 8(BX), Y9
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11

	// Rows 0-3.
	VMOVUPD     (SI), X0
	VINSERTF128 $1, (SI)(DX*2), Y0, Y0
	VMOVUPD     (SI)(DX*1), X1
	VINSERTF128 $1, (SI)(R8*1), Y1, Y1
	VMOVUPD     16(SI), X2
	VINSERTF128 $1, 16(SI)(DX*2), Y2, Y2
	VMOVUPD     16(SI)(DX*1), X3
	VINSERTF128 $1, 16(SI)(R8*1), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y4
	VUNPCKHPD   Y1, Y0, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	VMULPD      Y8, Y4, Y4
	VADDPD      Y4, Y12, Y12
	VMULPD      Y9, Y5, Y5
	VADDPD      Y5, Y12, Y12
	VMULPD      Y10, Y6, Y6
	VADDPD      Y6, Y12, Y12
	VMULPD      Y11, Y7, Y7
	VADDPD      Y7, Y12, Y12

	// Rows 4-7.
	VMOVUPD     (DI), X0
	VINSERTF128 $1, (DI)(DX*2), Y0, Y0
	VMOVUPD     (DI)(DX*1), X1
	VINSERTF128 $1, (DI)(R8*1), Y1, Y1
	VMOVUPD     16(DI), X2
	VINSERTF128 $1, 16(DI)(DX*2), Y2, Y2
	VMOVUPD     16(DI)(DX*1), X3
	VINSERTF128 $1, 16(DI)(R8*1), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y4
	VUNPCKHPD   Y1, Y0, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	VMULPD      Y8, Y4, Y4
	VADDPD      Y4, Y13, Y13
	VMULPD      Y9, Y5, Y5
	VADDPD      Y5, Y13, Y13
	VMULPD      Y10, Y6, Y6
	VADDPD      Y6, Y13, Y13
	VMULPD      Y11, Y7, Y7
	VADDPD      Y7, Y13, Y13

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	DECQ CX
	JNZ  mv_block

mv_store:
	VMOVUPD Y12, (R12)
	VMOVUPD Y13, 32(R12)
	ADDQ    $64, R12
	LEAQ    (R9)(DX*8), R9
	DECQ    R13
	JNZ     mv_group

mv_done:
	VZEROUPPER
	RET

// func mulVecTRows(dst, data []float64, rows []uint8, v []float64)
//
// For each group of four rows: dst[j] += row0[j]*v[r0], then row1, row2
// and row3, four columns per iteration and the remaining columns one at a
// time. Each of the last len(rows)%4 rows then takes a pass of its own.
// Row r starts r*len(dst) elements into data.
//
// Registers: DI &dst[0] and AX len(dst), R12 &data[0], R13 the next row
// index and BX the rows left, R8-R11 the group's rows, Y0-Y3 their
// broadcast scales, SI the column in bytes, DX/CX the column blocks and
// columns left (DX also &v[0] while a group is set up).
TEXT ·mulVecTRows(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), AX
	MOVQ data_base+24(FP), R12
	MOVQ rows_base+48(FP), R13
	MOVQ rows_len+56(FP), BX
	SUBQ $4, BX
	JLT  mt_rows

mt_group:
	MOVQ         v_base+72(FP), DX
	MOVBQZX      0(R13), R8
	MOVBQZX      1(R13), R9
	MOVBQZX      2(R13), R10
	MOVBQZX      3(R13), R11
	VBROADCASTSD (DX)(R8*8), Y0
	VBROADCASTSD (DX)(R9*8), Y1
	VBROADCASTSD (DX)(R10*8), Y2
	VBROADCASTSD (DX)(R11*8), Y3
	IMULQ        AX, R8
	LEAQ         (R12)(R8*8), R8
	IMULQ        AX, R9
	LEAQ         (R12)(R9*8), R9
	IMULQ        AX, R10
	LEAQ         (R12)(R10*8), R10
	IMULQ        AX, R11
	LEAQ         (R12)(R11*8), R11
	ADDQ         $4, R13
	XORQ         SI, SI
	MOVQ         AX, DX
	SHRQ         $2, DX
	JZ           mt_gtail

mt_gloop:
	VMOVUPD (DI)(SI*1), Y4
	VMULPD  (R8)(SI*1), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(SI*1), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R10)(SI*1), Y2, Y7
	VADDPD  Y7, Y4, Y4
	VMULPD  (R11)(SI*1), Y3, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(SI*1)
	ADDQ    $32, SI
	DECQ    DX
	JNZ     mt_gloop

mt_gtail:
	MOVQ AX, CX
	ANDQ $3, CX
	JZ   mt_gnext

mt_gone:
	VMOVSD (DI)(SI*1), X4
	VMULSD (R8)(SI*1), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(SI*1), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R10)(SI*1), X2, X7
	VADDSD X7, X4, X4
	VMULSD (R11)(SI*1), X3, X8
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JNZ    mt_gone

mt_gnext:
	SUBQ $4, BX
	JGE  mt_group

mt_rows:
	ADDQ $4, BX
	JZ   mt_done

mt_row:
	MOVQ         v_base+72(FP), DX
	MOVBQZX      0(R13), R8
	VBROADCASTSD (DX)(R8*8), Y0
	IMULQ        AX, R8
	LEAQ         (R12)(R8*8), R8
	INCQ         R13
	XORQ         SI, SI
	MOVQ         AX, DX
	SHRQ         $2, DX
	JZ           mt_rtail

mt_rloop:
	VMOVUPD (DI)(SI*1), Y4
	VMULPD  (R8)(SI*1), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(SI*1)
	ADDQ    $32, SI
	DECQ    DX
	JNZ     mt_rloop

mt_rtail:
	MOVQ AX, CX
	ANDQ $3, CX
	JZ   mt_rnext

mt_rone:
	VMOVSD (DI)(SI*1), X4
	VMULSD (R8)(SI*1), X0, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JNZ    mt_rone

mt_rnext:
	DECQ BX
	JNZ  mt_row

mt_done:
	VZEROUPPER
	RET

// func addOuterRows(data []float64, rows []uint8, alpha float64, u, v []float64)
//
// For each group of four rows: rowk[j] += (alpha*u[rk])*v[j] for k = 0..3
// in one pass over v, four columns per iteration and the remaining columns
// one at a time, so every element gets its one update. Each of the last
// len(rows)%4 rows then takes a pass of its own. Row r starts r*len(v)
// elements into data.
//
// Registers: R12 &data[0], R13 the next row index and BX the rows left, DI
// &v[0] and AX len(v), X9 alpha, R8-R11 the group's rows, Y0-Y3 their
// broadcast scales, SI the column in bytes, DX/CX the column blocks and
// columns left (DX also &u[0] while a group is set up).
TEXT ·addOuterRows(SB), NOSPLIT, $0-104
	MOVQ   data_base+0(FP), R12
	MOVQ   rows_base+24(FP), R13
	MOVQ   rows_len+32(FP), BX
	VMOVSD alpha+48(FP), X9
	MOVQ   v_base+80(FP), DI
	MOVQ   v_len+88(FP), AX
	SUBQ   $4, BX
	JLT    ao_rows

ao_group:
	MOVQ         u_base+56(FP), DX
	MOVBQZX      0(R13), R8
	MOVBQZX      1(R13), R9
	MOVBQZX      2(R13), R10
	MOVBQZX      3(R13), R11
	VMULSD       (DX)(R8*8), X9, X0
	VMULSD       (DX)(R9*8), X9, X1
	VMULSD       (DX)(R10*8), X9, X2
	VMULSD       (DX)(R11*8), X9, X3
	VBROADCASTSD X0, Y0
	VBROADCASTSD X1, Y1
	VBROADCASTSD X2, Y2
	VBROADCASTSD X3, Y3
	IMULQ        AX, R8
	LEAQ         (R12)(R8*8), R8
	IMULQ        AX, R9
	LEAQ         (R12)(R9*8), R9
	IMULQ        AX, R10
	LEAQ         (R12)(R10*8), R10
	IMULQ        AX, R11
	LEAQ         (R12)(R11*8), R11
	ADDQ         $4, R13
	XORQ         SI, SI
	MOVQ         AX, DX
	SHRQ         $2, DX
	JZ           ao_gtail

ao_gloop:
	VMOVUPD (DI)(SI*1), Y4
	VMULPD  Y4, Y0, Y5
	VADDPD  (R8)(SI*1), Y5, Y5
	VMOVUPD Y5, (R8)(SI*1)
	VMULPD  Y4, Y1, Y6
	VADDPD  (R9)(SI*1), Y6, Y6
	VMOVUPD Y6, (R9)(SI*1)
	VMULPD  Y4, Y2, Y7
	VADDPD  (R10)(SI*1), Y7, Y7
	VMOVUPD Y7, (R10)(SI*1)
	VMULPD  Y4, Y3, Y8
	VADDPD  (R11)(SI*1), Y8, Y8
	VMOVUPD Y8, (R11)(SI*1)
	ADDQ    $32, SI
	DECQ    DX
	JNZ     ao_gloop

ao_gtail:
	MOVQ AX, CX
	ANDQ $3, CX
	JZ   ao_gnext

ao_gone:
	VMOVSD (DI)(SI*1), X4
	VMULSD X4, X0, X5
	VADDSD (R8)(SI*1), X5, X5
	VMOVSD X5, (R8)(SI*1)
	VMULSD X4, X1, X6
	VADDSD (R9)(SI*1), X6, X6
	VMOVSD X6, (R9)(SI*1)
	VMULSD X4, X2, X7
	VADDSD (R10)(SI*1), X7, X7
	VMOVSD X7, (R10)(SI*1)
	VMULSD X4, X3, X8
	VADDSD (R11)(SI*1), X8, X8
	VMOVSD X8, (R11)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JNZ    ao_gone

ao_gnext:
	SUBQ $4, BX
	JGE  ao_group

ao_rows:
	ADDQ $4, BX
	JZ   ao_done

ao_row:
	MOVQ         u_base+56(FP), DX
	MOVBQZX      0(R13), R8
	VMULSD       (DX)(R8*8), X9, X0
	VBROADCASTSD X0, Y0
	IMULQ        AX, R8
	LEAQ         (R12)(R8*8), R8
	INCQ         R13
	XORQ         SI, SI
	MOVQ         AX, DX
	SHRQ         $2, DX
	JZ           ao_rtail

ao_rloop:
	VMULPD  (DI)(SI*1), Y0, Y5
	VADDPD  (R8)(SI*1), Y5, Y5
	VMOVUPD Y5, (R8)(SI*1)
	ADDQ    $32, SI
	DECQ    DX
	JNZ     ao_rloop

ao_rtail:
	MOVQ AX, CX
	ANDQ $3, CX
	JZ   ao_rnext

ao_rone:
	VMULSD (DI)(SI*1), X0, X5
	VADDSD (R8)(SI*1), X5, X5
	VMOVSD X5, (R8)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JNZ    ao_rone

ao_rnext:
	DECQ BX
	JNZ  ao_row

ao_done:
	VZEROUPPER
	RET

// func axpy(alpha float64, x, y []float64)
//
// y[i] += alpha*x[i] over len(y), four elements per iteration and the
// remaining elements one at a time.
TEXT ·axpy(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x_base+8(FP), AX
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX
	XORQ         SI, SI
	MOVQ         CX, DX
	SHRQ         $2, DX
	JZ           ax_tail

ax_loop:
	VMULPD  (AX)(SI*1), Y0, Y1
	VADDPD  (DI)(SI*1), Y1, Y1
	VMOVUPD Y1, (DI)(SI*1)
	ADDQ    $32, SI
	DECQ    DX
	JNZ     ax_loop

ax_tail:
	ANDQ $3, CX
	JZ   ax_done

ax_one:
	VMULSD (AX)(SI*1), X0, X1
	VADDSD (DI)(SI*1), X1, X1
	VMOVSD X1, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JNZ    ax_one

ax_done:
	VZEROUPPER
	RET

// func biasReLU(v, b []float64)
//
// v[i] = max(v[i]+b[i], 0) over len(v), four elements per iteration and
// the remaining elements one at a time. The zero is VMAXPD's second source,
// which the instruction returns whenever the comparison first > second is
// false: for a NaN sum and for a sum of either zero, as the Go ReLU returns
// +0 for both.
TEXT ·biasReLU(SB), NOSPLIT, $0-48
	MOVQ   v_base+0(FP), DI
	MOVQ   v_len+8(FP), CX
	MOVQ   b_base+24(FP), AX
	VXORPD Y1, Y1, Y1
	XORQ   SI, SI
	MOVQ   CX, DX
	SHRQ   $2, DX
	JZ     br_tail

br_loop:
	VMOVUPD (DI)(SI*1), Y0
	VADDPD  (AX)(SI*1), Y0, Y0
	VMAXPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(SI*1)
	ADDQ    $32, SI
	DECQ    DX
	JNZ     br_loop

br_tail:
	ANDQ $3, CX
	JZ   br_done

br_one:
	VMOVSD (DI)(SI*1), X0
	VADDSD (AX)(SI*1), X0, X0
	VMAXSD X1, X0, X0
	VMOVSD X0, (DI)(SI*1)
	ADDQ   $8, SI
	DECQ   CX
	JNZ    br_one

br_done:
	VZEROUPPER
	RET

// func reluMask(v, act []float64)
//
// v[i] = +0 where act[i] <= 0 over len(v), four elements per iteration and
// the remaining elements one at a time. The mask is the ordered,
// signalling less-or-equal (predicate 2, LE_OS), false for a NaN act[i]
// as Go's <= is, and VANDNPD clears v[i] where it is set and passes the
// bits through where it is not.
TEXT ·reluMask(SB), NOSPLIT, $0-48
	MOVQ   v_base+0(FP), DI
	MOVQ   v_len+8(FP), CX
	MOVQ   act_base+24(FP), AX
	VXORPD Y1, Y1, Y1
	XORQ   SI, SI
	MOVQ   CX, DX
	SHRQ   $2, DX
	JZ     rm_tail

rm_loop:
	VMOVUPD (AX)(SI*1), Y0
	VCMPPD  $2, Y1, Y0, Y0
	VANDNPD (DI)(SI*1), Y0, Y0
	VMOVUPD Y0, (DI)(SI*1)
	ADDQ    $32, SI
	DECQ    DX
	JNZ     rm_loop

rm_tail:
	ANDQ $3, CX
	JZ   rm_done

rm_one:
	VMOVSD  (AX)(SI*1), X0
	VCMPSD  $2, X1, X0, X0
	VMOVSD  (DI)(SI*1), X2
	VANDNPD X2, X0, X0
	VMOVSD  X0, (DI)(SI*1)
	ADDQ    $8, SI
	DECQ    CX
	JNZ     rm_one

rm_done:
	VZEROUPPER
	RET

// func panelMulVec(w, x, dst []float64)
//
// dst = W·x for W in the panel layout, len(dst)/4 whole panels of
// 4·len(x) elements each. Panels are taken eight at a time, then four,
// then one, with one accumulator per panel: for each k in ascending order
// x[k] is broadcast, multiplied by the panel's four weights of column k
// (one contiguous load) and added, so each lane is one row summed left to
// right.
//
// Registers: R9 the current panel, DX the panel stride in bytes and R8
// three strides, SI (and DI, four panels on) the column within the group,
// R11 &x[0] and BX &x[k], R10 len(x) and CX the columns left, R12 the
// group's dst and R13 the panels left; Y8 the broadcast x[k].
TEXT ·panelMulVec(SB), NOSPLIT, $0-72
	MOVQ w_base+0(FP), R9
	MOVQ x_base+24(FP), R11
	MOVQ x_len+32(FP), R10
	MOVQ dst_base+48(FP), R12
	MOVQ dst_len+56(FP), R13
	SHRQ $2, R13
	MOVQ R10, DX
	SHLQ $5, DX
	LEAQ (DX)(DX*2), R8

pm_8:
	CMPQ   R13, $8
	JLT    pm_4
	MOVQ   R9, SI
	LEAQ   (R9)(DX*4), DI
	MOVQ   R11, BX
	MOVQ   R10, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     pm_8store

pm_8loop:
	VBROADCASTSD (BX), Y8
	VMULPD       (SI), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       (SI)(DX*1), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       (SI)(DX*2), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       (SI)(R8*1), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       (DI), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       (DI)(DX*1), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       (DI)(DX*2), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       (DI)(R8*1), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         $32, SI
	ADDQ         $32, DI
	ADDQ         $8, BX
	DECQ         CX
	JNZ          pm_8loop

pm_8store:
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	VMOVUPD Y4, 128(R12)
	VMOVUPD Y5, 160(R12)
	VMOVUPD Y6, 192(R12)
	VMOVUPD Y7, 224(R12)
	ADDQ    $256, R12
	LEAQ    (R9)(DX*8), R9
	SUBQ    $8, R13
	JMP     pm_8

pm_4:
	CMPQ   R13, $4
	JLT    pm_1
	MOVQ   R9, SI
	MOVQ   R11, BX
	MOVQ   R10, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     pm_4store

pm_4loop:
	VBROADCASTSD (BX), Y8
	VMULPD       (SI), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       (SI)(DX*1), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       (SI)(DX*2), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       (SI)(R8*1), Y8, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         $32, SI
	ADDQ         $8, BX
	DECQ         CX
	JNZ          pm_4loop

pm_4store:
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	ADDQ    $128, R12
	LEAQ    (R9)(DX*4), R9
	SUBQ    $4, R13

pm_1:
	TESTQ  R13, R13
	JZ     pm_done
	MOVQ   R9, SI
	MOVQ   R11, BX
	MOVQ   R10, CX
	VXORPD Y0, Y0, Y0
	TESTQ  CX, CX
	JZ     pm_1store

pm_1loop:
	VBROADCASTSD (BX), Y8
	VMULPD       (SI), Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         $32, SI
	ADDQ         $8, BX
	DECQ         CX
	JNZ          pm_1loop

pm_1store:
	VMOVUPD Y0, (R12)
	ADDQ    $32, R12
	ADDQ    DX, R9
	DECQ    R13
	JMP     pm_1

pm_done:
	VZEROUPPER
	RET

// func panelAddOuterMulVec(w []float64, alpha float64, u, x, next, dst []float64)
//
// W(r, k) += (alpha·u[r])·x[k] on every element of len(u)/4 whole panels,
// and then panelMulVec(w, next, dst), in one pass, four panels at a time
// and then one: each panel's four scales alpha·u[r] stay in a register,
// and for each k the broadcast x[k] is multiplied by them and added to the
// panel's column k, product first as in addOuterRows; the column is stored
// and multiplied by the broadcast next[k] into the panel's accumulator.
// Every weight receives its update before it is read for the product, as
// in the update and the product run one after the other.
//
// Registers: R9 the current panel, DX the panel stride in bytes and R8
// three strides, SI the column within the group, AX the group's &u, R11
// &x[0], DI &next[0], CX the column k and R10 len(x), R12 the group's dst
// and R13 the panels left; Y15 alpha, Y0-Y3 the scales, Y4-Y7 the
// accumulators, Y8 the broadcast x[k] and Y9 the broadcast next[k].
TEXT ·panelAddOuterMulVec(SB), NOSPLIT, $0-128
	MOVQ         w_base+0(FP), R9
	VBROADCASTSD alpha+24(FP), Y15
	MOVQ         u_base+32(FP), AX
	MOVQ         x_base+56(FP), R11
	MOVQ         x_len+64(FP), R10
	MOVQ         next_base+80(FP), DI
	MOVQ         dst_base+104(FP), R12
	MOVQ         dst_len+112(FP), R13
	SHRQ         $2, R13
	MOVQ         R10, DX
	SHLQ         $5, DX
	LEAQ         (DX)(DX*2), R8

pf_4:
	CMPQ   R13, $4
	JLT    pf_1
	VMULPD (AX), Y15, Y0
	VMULPD 32(AX), Y15, Y1
	VMULPD 64(AX), Y15, Y2
	VMULPD 96(AX), Y15, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R9, SI
	XORQ   CX, CX
	TESTQ  R10, R10
	JZ     pf_4store

pf_4loop:
	VBROADCASTSD (R11)(CX*8), Y8
	VBROADCASTSD (DI)(CX*8), Y9
	VMULPD       Y8, Y0, Y10
	VADDPD       (SI), Y10, Y10
	VMOVUPD      Y10, (SI)
	VMULPD       Y9, Y10, Y10
	VADDPD       Y10, Y4, Y4
	VMULPD       Y8, Y1, Y11
	VADDPD       (SI)(DX*1), Y11, Y11
	VMOVUPD      Y11, (SI)(DX*1)
	VMULPD       Y9, Y11, Y11
	VADDPD       Y11, Y5, Y5
	VMULPD       Y8, Y2, Y12
	VADDPD       (SI)(DX*2), Y12, Y12
	VMOVUPD      Y12, (SI)(DX*2)
	VMULPD       Y9, Y12, Y12
	VADDPD       Y12, Y6, Y6
	VMULPD       Y8, Y3, Y13
	VADDPD       (SI)(R8*1), Y13, Y13
	VMOVUPD      Y13, (SI)(R8*1)
	VMULPD       Y9, Y13, Y13
	VADDPD       Y13, Y7, Y7
	ADDQ         $32, SI
	INCQ         CX
	CMPQ         CX, R10
	JLT          pf_4loop

pf_4store:
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, 64(R12)
	VMOVUPD Y7, 96(R12)
	ADDQ    $128, R12
	ADDQ    $128, AX
	LEAQ    (R9)(DX*4), R9
	SUBQ    $4, R13
	JMP     pf_4

pf_1:
	TESTQ  R13, R13
	JZ     pf_done
	VMULPD (AX), Y15, Y0
	VXORPD Y4, Y4, Y4
	MOVQ   R9, SI
	XORQ   CX, CX
	TESTQ  R10, R10
	JZ     pf_1store

pf_1loop:
	VBROADCASTSD (R11)(CX*8), Y8
	VBROADCASTSD (DI)(CX*8), Y9
	VMULPD       Y8, Y0, Y10
	VADDPD       (SI), Y10, Y10
	VMOVUPD      Y10, (SI)
	VMULPD       Y9, Y10, Y10
	VADDPD       Y10, Y4, Y4
	ADDQ         $32, SI
	INCQ         CX
	CMPQ         CX, R10
	JLT          pf_1loop

pf_1store:
	VMOVUPD Y4, (R12)
	ADDQ    $32, R12
	ADDQ    $32, AX
	ADDQ    DX, R9
	DECQ    R13
	JMP     pf_1

pf_done:
	VZEROUPPER
	RET
