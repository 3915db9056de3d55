//go:build !amd64 || purego

package tensor

// vector is false where there is no vector kernel: another architecture, or
// a build with -tags purego. Matrix then keeps its weights row-major and
// Mul is MatMul.
var vector = false

func mulPanel(panel, x []float32, out *[panelRows]float32) {
	panic("tensor: no vector kernel in this build")
}
