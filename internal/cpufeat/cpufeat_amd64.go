//go:build !purego

package cpufeat

var avx2, avx512 = probe()

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// across context switches.
func AVX2() bool { return avx2 }

// AVX512 reports whether the CPU has AVX-512F, and AVX2, and the OS saves
// the opmask and all 32 ZMM registers.
func AVX512() bool { return avx512 }

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// probe reads CPUID and XCR0 once, at package init. AVX2 needs OSXSAVE and AVX
// (leaf 1), XMM and YMM state in XCR0 (bits 1 and 2) and AVX2 (leaf 7, EBX bit
// 5). AVX-512 needs all of that, AVX512F (leaf 7, EBX bit 16) and the opmask,
// upper-ZMM and ZMM16-31 state in XCR0 (bits 5, 6 and 7): XCR0 & 0xE6 == 0xE6.
func probe() (avx2, avx512 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	xcr0 := xgetbv()
	if xcr0&6 != 6 {
		return false, false
	}
	const avx2Bit, avx512fBit = 1 << 5, 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = ebx&avx2Bit != 0
	return avx2, avx2 && ebx&avx512fBit != 0 && xcr0&0xe6 == 0xe6
}
