//go:build !amd64 || purego

package tensor

// vector is false where there is no vector kernel: another architecture, or
// a build with -tags purego. Matrix then keeps its weights row-major and
// Mul is MatMul, and Softmax and SiLU are their scalar loops.
var vector = false

func mulPanel(panel, x []float32, out *[panelRows]float32) {
	panic("tensor: no vector kernel in this build")
}

func expShiftVec(x []float32, sub float32) int { panic("tensor: no vector kernel in this build") }
func siluVec(x []float32) int                  { panic("tensor: no vector kernel in this build") }
func maxVec(x []float32) float32               { panic("tensor: no vector kernel in this build") }
func divVec(x []float32, d float32)            { panic("tensor: no vector kernel in this build") }
