#include "textflag.h"

// The ids of a block's eight rows, relative to its first.
DATA iota32<>+0x00(SB)/4, $0
DATA iota32<>+0x04(SB)/4, $1
DATA iota32<>+0x08(SB)/4, $2
DATA iota32<>+0x0c(SB)/4, $3
DATA iota32<>+0x10(SB)/4, $4
DATA iota32<>+0x14(SB)/4, $5
DATA iota32<>+0x18(SB)/4, $6
DATA iota32<>+0x1c(SB)/4, $7
GLOBL iota32<>(SB), RODATA|NOPTR, $32

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

// KEEP writes the ids in Y2 that K1 selects to sel[DX], DX on, eight ids
// wide, adds their count to DX and moves Y2 on to the next block.
#define KEEP \
	VPCOMPRESSD Y2, K1, Y1; \
	VMOVDQU32   Y1, (DI)(DX*4); \
	KMOVB       K1, AX; \
	POPCNTL     AX, AX; \
	ADDQ        AX, DX; \
	VPADDD      Y3, Y2, Y2

// func keepRange(vals []int64, id int32, low int64, width uint64, neg bool, sel []int32) (n, done int)
TEXT ·keepRange(SB), NOSPLIT, $0-96
	MOVQ vals_base+0(FP), SI
	MOVQ vals_len+8(FP), BX
	ANDQ $-8, BX
	MOVQ sel_base+56(FP), DI
	IDS(id+24(FP))
	VPBROADCASTQ low+32(FP), Z4
	VPBROADCASTQ width+40(FP), Z5
	MOVBLZX neg+48(FP), AX
	NEGL    AX
	KMOVB   AX, K2                  // all eight lanes flip under neg
	XORQ    CX, CX
	XORQ    DX, DX

keepLoop:
	CMPQ      CX, BX
	JAE       keepEnd
	VMOVDQU64 (SI)(CX*8), Z0
	VPSUBQ    Z4, Z0, Z0
	VPCMPUQ   $2, Z5, Z0, K1        // uint64(v-low) <= width
	KXORB     K2, K1, K1
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
	VMOVDQU32  (DI)(CX*4), Y2       // eight row ids
	VPCMPUD    $5, Y13, Y2, K3      // id >= len(vals), unsigned
	KORTESTB   K3, K3
	JNZ        selEnd
	KXNORB     K2, K2, K2
	VPGATHERDQ (SI)(Y2*8), K2, Z0   // their keys
	BLOOM_TEST
	VPCOMPRESSD Y2, K1, Y1
	VMOVDQU32   Y1, (DI)(DX*4)
	KMOVB       K1, AX
	POPCNTL     AX, AX
	ADDQ        AX, DX
	ADDQ        $8, CX
	JMP         selLoop

selEnd:
	MOVQ DX, n+80(FP)
	MOVQ CX, done+88(FP)
	VZEROUPPER
	RET
