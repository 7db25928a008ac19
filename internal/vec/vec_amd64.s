#include "textflag.h"

// The ids of a block's rows, relative to its first: eight for the int64
// and float64 loops, sixteen for the int32 one.
DATA iota32<>+0x00(SB)/4, $0
DATA iota32<>+0x04(SB)/4, $1
DATA iota32<>+0x08(SB)/4, $2
DATA iota32<>+0x0c(SB)/4, $3
DATA iota32<>+0x10(SB)/4, $4
DATA iota32<>+0x14(SB)/4, $5
DATA iota32<>+0x18(SB)/4, $6
DATA iota32<>+0x1c(SB)/4, $7
DATA iota32<>+0x20(SB)/4, $8
DATA iota32<>+0x24(SB)/4, $9
DATA iota32<>+0x28(SB)/4, $10
DATA iota32<>+0x2c(SB)/4, $11
DATA iota32<>+0x30(SB)/4, $12
DATA iota32<>+0x34(SB)/4, $13
DATA iota32<>+0x38(SB)/4, $14
DATA iota32<>+0x3c(SB)/4, $15
GLOBL iota32<>(SB), RODATA|NOPTR, $64

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
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

// IDS sets Y2 to the ids of the first block, id … id+7, and Y3 to the
// step between blocks, eight in every lane.
#define IDS(id) \
	MOVL         id, AX; \
	VPBROADCASTD AX, Y2; \
	VPADDD       iota32<>(SB), Y2, Y2; \
	MOVL         $8, AX; \
	VPBROADCASTD AX, Y3

// CMP_MASKS loads a compare's three lane masks (vec.masks): the lanes
// where a < b counts into K4, those where a == b counts into K5 and those
// that flip into K7.
#define CMP_MASKS(lt, eq, flip) \
	MOVBLZX lt, AX; \
	KMOVB   AX, K4; \
	MOVBLZX eq, AX; \
	KMOVB   AX, K5; \
	MOVBLZX flip, AX; \
	KMOVB   AX, K7

// CMP_INTS sets K1 to the signed int64 lanes of Z0 that pass the compare
// against Z1 under CMP_MASKS: a < b where K4 holds, or a == b where K5
// holds, flipped where K7 holds. Clobbers K6.
#define CMP_INTS \
	VPCMPQ $1, Z1, Z0, K4, K1; \
	VPCMPQ $0, Z1, Z0, K5, K6; \
	KORB   K6, K1, K1; \
	KXORB  K7, K1, K1

// NEG_MASK sets K7 to all eight lanes when the bool neg is set, else to
// none: the lanes whose outcome flips.
#define NEG_MASK(neg) \
	MOVBLZX neg, AX; \
	NEGL    AX; \
	KMOVB   AX, K7

// BETWEEN_FLOAT sets K1 to the lanes of Z0 with Z4 <= v <= Z5 (GE_OQ
// and LE_OQ, so a NaN fails), flipped where K7 holds.
#define BETWEEN_FLOAT \
	VCMPPD $0x1d, Z4, Z0, K1; \
	VCMPPD $0x12, Z5, Z0, K1, K1; \
	KXORB  K7, K1, K1

// SEL_IDS loads the eight row ids at sel[CX] into Y2 and jumps to end
// when one of them is at or above Y13, unsigned: outside the columns.
#define SEL_IDS(end) \
	VMOVDQU32 (DI)(CX*4), Y2; \
	VPCMPUD   $5, Y13, Y2, K3; \
	KORTESTB  K3, K3; \
	JNZ       end

// SEL_KEEP writes the ids in Y2 that K1 selects to sel[DX], DX on, and
// adds their count to DX. The ids it overwrites were loaded already.
#define SEL_KEEP \
	VPCOMPRESSD Y2, K1, Y1; \
	VMOVDQU32   Y1, (DI)(DX*4); \
	KMOVB       K1, AX; \
	POPCNTL     AX, AX; \
	ADDQ        AX, DX

// BLOOM_CONSTS loads bloom.KeyHash's multiplier into Z10, 63 into Z11, 1
// into Z12 and the filter's shift into Z9.
#define BLOOM_CONSTS(shift) \
	VPBROADCASTQ shift, Z9; \
	MOVQ         $0x9e3779b97f4a7c15, AX; \
	VPBROADCASTQ AX, Z10; \
	MOVQ         $63, AX; \
	VPBROADCASTQ AX, Z11; \
	MOVQ         $1, AX; \
	VPBROADCASTQ AX, Z12

// BLOOM_TEST tests the eight keys in Z0 against the filter whose words
// start at R8 and sets K1 to the lanes that may hold their key. It is
// bloom.Filter's test: h = KeyHash(key) >> shift, word h>>12 and the two
// bits h&63 and h>>6&63, a pass when the word holds both.
// Clobbers Z0, Z1, Z6, Z7 and K2.
#define BLOOM_TEST \
	VPMULLQ    Z10, Z0, Z0; \
	VPSLLQ     $38, Z0, Z1; \
	VPXORQ     Z1, Z0, Z0; \
	VPSRLVQ    Z9, Z0, Z0; \
	VPSRLQ     $12, Z0, Z1; \
	VPANDQ     Z11, Z0, Z6; \
	VPSRLQ     $6, Z0, Z7; \
	VPANDQ     Z11, Z7, Z7; \
	VPSLLVQ    Z6, Z12, Z6; \
	VPSLLVQ    Z7, Z12, Z7; \
	VPORQ      Z7, Z6, Z6; \
	KXNORB     K2, K2, K2; \
	VPGATHERQQ (R8)(Z1*8), K2, Z7; \
	VPANDQ     Z6, Z7, Z7; \
	VPCMPEQQ   Z6, Z7, K1

// KEEP is SEL_KEEP, then moves Y2 on to the next block's ids.
#define KEEP \
	SEL_KEEP; \
	VPADDD Y3, Y2, Y2

// func keepRange(vals []int64, id int32, low int64, width uint64, neg bool, sel []int32) (n, done int)
TEXT ·keepRange(SB), NOSPLIT, $0-96
	MOVQ vals_base+0(FP), SI
	MOVQ vals_len+8(FP), BX
	ANDQ $-8, BX
	MOVQ sel_base+56(FP), DI
	IDS(id+24(FP))
	VPBROADCASTQ low+32(FP), Z4
	VPBROADCASTQ width+40(FP), Z5
	NEG_MASK(neg+48(FP))
	XORQ CX, CX
	XORQ DX, DX

keepLoop:
	CMPQ      CX, BX
	JAE       keepEnd
	VMOVDQU64 (SI)(CX*8), Z0
	VPSUBQ    Z4, Z0, Z0
	VPCMPUQ   $2, Z5, Z0, K1        // uint64(v-low) <= width
	KXORB     K7, K1, K1
	KEEP
	ADDQ      $8, CX
	JMP       keepLoop

keepEnd:
	MOVQ DX, n+80(FP)
	MOVQ CX, done+88(FP)
	VZEROUPPER
	RET

// func bloomRange(words []uint64, shift uint, vals []int64, id int32, sel []int32) (n, done int)
TEXT ·bloomRange(SB), NOSPLIT, $0-104
	MOVQ words_base+0(FP), R8
	MOVQ vals_base+32(FP), SI
	MOVQ vals_len+40(FP), BX
	ANDQ $-8, BX
	MOVQ sel_base+64(FP), DI
	IDS(id+56(FP))
	BLOOM_CONSTS(shift+24(FP))
	XORQ CX, CX
	XORQ DX, DX

rangeLoop:
	CMPQ      CX, BX
	JAE       rangeEnd
	VMOVDQU64 (SI)(CX*8), Z0
	BLOOM_TEST
	KEEP
	ADDQ      $8, CX
	JMP       rangeLoop

rangeEnd:
	MOVQ DX, n+88(FP)
	MOVQ CX, done+96(FP)
	VZEROUPPER
	RET

// func bloomSel(words []uint64, shift uint, vals []int64, sel []int32) (n, done int)
TEXT ·bloomSel(SB), NOSPLIT, $0-96
	MOVQ words_base+0(FP), R8
	MOVQ vals_base+32(FP), SI
	MOVQ sel_base+56(FP), DI
	MOVQ sel_len+64(FP), BX
	ANDQ $-8, BX
	BLOOM_CONSTS(shift+24(FP))
	MOVQ         vals_len+40(FP), AX
	VPBROADCASTD AX, Y13            // ids at or above it are outside vals
	XORQ         CX, CX
	XORQ         DX, DX

selLoop:
	CMPQ       CX, BX
	JAE        selEnd
	SEL_IDS(selEnd)
	KXNORB     K2, K2, K2
	VPGATHERDQ (SI)(Y2*8), K2, Z0   // their keys
	BLOOM_TEST
	SEL_KEEP
	ADDQ        $8, CX
	JMP         selLoop

selEnd:
	MOVQ DX, n+80(FP)
	MOVQ CX, done+88(FP)
	VZEROUPPER
	RET

// func betweenFloat(vals []float64, id int32, lo, hi float64, neg bool, sel []int32) (n, done int)
TEXT ·betweenFloat(SB), NOSPLIT, $0-96
	MOVQ vals_base+0(FP), SI
	MOVQ vals_len+8(FP), BX
	ANDQ $-8, BX
	MOVQ sel_base+56(FP), DI
	IDS(id+24(FP))
	VBROADCASTSD lo+32(FP), Z4
	VBROADCASTSD hi+40(FP), Z5
	NEG_MASK(neg+48(FP))
	XORQ CX, CX
	XORQ DX, DX

betweenLoop:
	CMPQ    CX, BX
	JAE     betweenEnd
	VMOVUPD (SI)(CX*8), Z0
	BETWEEN_FLOAT
	KEEP
	ADDQ    $8, CX
	JMP     betweenLoop

betweenEnd:
	MOVQ DX, n+80(FP)
	MOVQ CX, done+88(FP)
	VZEROUPPER
	RET

// func betweenFloatSel(vals []float64, lo, hi float64, neg bool, sel []int32) (n, done int)
TEXT ·betweenFloatSel(SB), NOSPLIT, $0-88
	MOVQ         vals_base+0(FP), SI
	MOVQ         sel_base+48(FP), DI
	MOVQ         sel_len+56(FP), BX
	ANDQ         $-8, BX
	VBROADCASTSD lo+24(FP), Z4
	VBROADCASTSD hi+32(FP), Z5
	NEG_MASK(neg+40(FP))
	MOVQ         vals_len+8(FP), AX
	VPBROADCASTD AX, Y13            // ids at or above it are outside vals
	XORQ         CX, CX
	XORQ         DX, DX

betweenSelLoop:
	CMPQ       CX, BX
	JAE        betweenSelEnd
	SEL_IDS(betweenSelEnd)
	KXNORB     K2, K2, K2
	VPGATHERDQ (SI)(Y2*8), K2, Z0   // their values
	BETWEEN_FLOAT
	SEL_KEEP
	ADDQ       $8, CX
	JMP        betweenSelLoop

betweenSelEnd:
	MOVQ DX, n+72(FP)
	MOVQ CX, done+80(FP)
	VZEROUPPER
	RET

// func cmpCols(a, b []int64, id int32, lt, eq, flip uint8, sel []int32) (n, done int)
TEXT ·cmpCols(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	ANDQ $-8, BX
	MOVQ b_base+24(FP), R9
	MOVQ sel_base+56(FP), DI
	IDS(id+48(FP))
	CMP_MASKS(lt+52(FP), eq+53(FP), flip+54(FP))
	XORQ CX, CX
	XORQ DX, DX

colsLoop:
	CMPQ      CX, BX
	JAE       colsEnd
	VMOVDQU64 (SI)(CX*8), Z0
	VMOVDQU64 (R9)(CX*8), Z1
	CMP_INTS
	KEEP
	ADDQ      $8, CX
	JMP       colsLoop

colsEnd:
	MOVQ DX, n+80(FP)
	MOVQ CX, done+88(FP)
	VZEROUPPER
	RET

// func cmpColsSel(a, b []int64, lt, eq, flip uint8, sel []int32) (n, done int)
TEXT ·cmpColsSel(SB), NOSPLIT, $0-96
	MOVQ         a_base+0(FP), SI
	MOVQ         b_base+24(FP), R9
	MOVQ         sel_base+56(FP), DI
	MOVQ         sel_len+64(FP), BX
	ANDQ         $-8, BX
	CMP_MASKS(lt+48(FP), eq+49(FP), flip+50(FP))
	MOVQ         a_len+8(FP), AX
	VPBROADCASTD AX, Y13            // ids at or above it are outside a and b
	XORQ         CX, CX
	XORQ         DX, DX

colsSelLoop:
	CMPQ       CX, BX
	JAE        colsSelEnd
	SEL_IDS(colsSelEnd)
	KXNORB     K2, K2, K2
	VPGATHERDQ (SI)(Y2*8), K2, Z0   // their values in a
	KXNORB     K2, K2, K2
	VPGATHERDQ (R9)(Y2*8), K2, Z1   // and in b
	CMP_INTS
	SEL_KEEP
	ADDQ       $8, CX
	JMP        colsSelLoop

colsSelEnd:
	MOVQ DX, n+80(FP)
	MOVQ CX, done+88(FP)
	VZEROUPPER
	RET

// func eqCodes(codes []int32, id int32, code int32, neg bool, sel []int32) (n, done int)
// Sixteen codes an iteration: a ZMM register holds sixteen int32 lanes, so
// the ids, the compare and the compress are all sixteen wide.
TEXT ·eqCodes(SB), NOSPLIT, $0-80
	MOVQ         codes_base+0(FP), SI
	MOVQ         codes_len+8(FP), BX
	ANDQ         $-16, BX
	MOVQ         sel_base+40(FP), DI
	MOVL         id+24(FP), AX
	VPBROADCASTD AX, Z2
	VPADDD       iota32<>(SB), Z2, Z2   // the block's ids, id … id+15
	MOVL         $16, AX
	VPBROADCASTD AX, Z3
	MOVL         code+28(FP), AX
	VPBROADCASTD AX, Z4
	MOVBLZX      neg+32(FP), AX
	NEGL         AX
	KMOVW        AX, K7                 // all sixteen lanes flip under neg
	XORQ         CX, CX
	XORQ         DX, DX

codesLoop:
	CMPQ        CX, BX
	JAE         codesEnd
	VMOVDQU32   (SI)(CX*4), Z0
	VPCMPEQD    Z4, Z0, K1
	KXORW       K7, K1, K1
	VPCOMPRESSD Z2, K1, Z1
	VMOVDQU32   Z1, (DI)(DX*4)
	KMOVW       K1, AX
	POPCNTL     AX, AX
	ADDQ        AX, DX
	VPADDD      Z3, Z2, Z2
	ADDQ        $16, CX
	JMP         codesLoop

codesEnd:
	MOVQ DX, n+64(FP)
	MOVQ CX, done+72(FP)
	VZEROUPPER
	RET
