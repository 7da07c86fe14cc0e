//go:build !amd64

package nn

// simdAvailable is false without the amd64 assembly: the Go tiles
// compute every element.
const simdAvailable = false

func strips2x8(c0, c1, a0, a1, b *float64, astep, bstep, kn, groups int) {
	panic("nn: strips2x8 without the amd64 assembly")
}
