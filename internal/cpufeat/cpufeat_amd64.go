//go:build !purego

package cpufeat

var avx2, avx512, f16c = probe()

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// across context switches.
func AVX2() bool { return avx2 }

// AVX512 reports whether the CPU has AVX-512F, and AVX2, and the OS saves
// the opmask and all 32 ZMM registers.
func AVX512() bool { return avx512 }

// F16C reports whether the CPU has F16C (VCVTPH2PS and VCVTPS2PH on XMM and
// YMM registers) and the OS saves the YMM registers.
func F16C() bool { return f16c }

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// probe reads CPUID and XCR0 once, at package init. Every feature needs
// OSXSAVE and AVX (leaf 1, ECX bits 27 and 28) and XMM and YMM state in XCR0
// (bits 1 and 2). F16C is leaf 1, ECX bit 29; AVX2 is leaf 7, EBX bit 5.
// AVX-512 needs AVX2, AVX512F (leaf 7, EBX bit 16) and the opmask, upper-ZMM
// and ZMM16-31 state in XCR0 (bits 5, 6 and 7): XCR0 & 0xE6 == 0xE6.
func probe() (avx2, avx512, f16c bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false, false
	}
	const osxsave, avx, f16cBit = 1 << 27, 1 << 28, 1 << 29
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx) != osxsave|avx {
		return false, false, false
	}
	xcr0 := xgetbv()
	if xcr0&6 != 6 {
		return false, false, false
	}
	f16c = ecx&f16cBit != 0
	if maxLeaf < 7 {
		return false, false, f16c
	}
	const avx2Bit, avx512fBit = 1 << 5, 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = ebx&avx2Bit != 0
	return avx2, avx2 && ebx&avx512fBit != 0 && xcr0&0xe6 == 0xe6, f16c
}
