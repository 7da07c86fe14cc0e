package nn

// simdAvailable reports whether this CPU runs AVX2 and the operating
// system saves YMM state across context switches.
var simdAvailable = detectAVX2()

// strips2x8 writes groups consecutive 2×8 output strips. Strip g holds
// columns 8g…8g+7 of two output rows:
//
//	c0[8g+j] = Σ_{k<kn} a0[k·astep]·b[k·bstep+8g+j]
//	c1[8g+j] = Σ_{k<kn} a1[k·astep]·b[k·bstep+8g+j]
//
// Each sum starts at +0 and adds its products in ascending k, each
// product rounded before it is added (VMULPD, then VADDPD; never a
// fused multiply-add). The caller guarantees kn ≥ 1, groups ≥ 1 and
// that every element addressed lies in its slices.
//
//go:noescape
func strips2x8(c0, c1, a0, a1, b *float64, astep, bstep, kn, groups int)

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of extended control register 0: the
// register state the operating system saves.
func xgetbv0() uint32

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv0()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
