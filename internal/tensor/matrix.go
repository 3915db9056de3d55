package tensor

// panelRows is how many rows the vector kernel computes at once: four
// eight-lane accumulators.
const panelRows = 32

// Matrix is a rows×cols weight matrix laid out for the kernel this machine
// runs. Build one per weight with NewMatrix; Mul is its only operation.
//
// The portable kernel (MatMul) reads the row-major slice it was given. The
// vector kernel reads panels: 32 consecutive rows stored column by column,
// so one load brings eight rows' weights for one input element, the last
// panel padded with zero rows. Either way every output element is the sum
// of its row's products in column order from +0, so the two agree in bits.
type Matrix struct {
	rows, cols int
	w          []float32 // row-major; nil when packed
	panels     []float32 // ceil(rows/32) panels of cols×32; nil when not packed
}

// NewMatrix wraps the row-major rows×cols matrix w, which the Matrix may
// keep: the caller must not write to it afterwards.
func NewMatrix(w []float32, rows, cols int) *Matrix {
	if len(w) != rows*cols {
		panic("tensor: NewMatrix dimension mismatch")
	}
	m := &Matrix{rows: rows, cols: cols}
	if !vector {
		m.w = w
		return m
	}
	m.panels = make([]float32, (rows+panelRows-1)/panelRows*cols*panelRows)
	for r := 0; r < rows; r++ {
		panel := m.panels[r/panelRows*cols*panelRows:]
		for c, v := range w[r*cols:][:cols] {
			panel[c*panelRows+r%panelRows] = v
		}
	}
	return m
}

// Mul computes out[t] = M·x[t] for the n vectors of cols elements packed in
// x; out packs the n results of rows elements each.
func (m *Matrix) Mul(x []float32, n int, out []float32) {
	if m.panels == nil {
		MatMul(m.w, m.rows, m.cols, x, n, out)
		return
	}
	rows, cols := m.rows, m.cols
	if len(x) != n*cols || len(out) != n*rows {
		panic("tensor: Matrix.Mul dimension mismatch")
	}
	// A panel meets all n vectors before the next is touched, so it is
	// read from memory once.
	for r := 0; r < rows; r += panelRows {
		panel := m.panels[r*cols:][:cols*panelRows]
		for t := 0; t < n; t++ {
			xt, o := x[t*cols:][:cols], out[t*rows+r:(t+1)*rows]
			if len(o) >= panelRows {
				mulPanel(panel, xt, (*[panelRows]float32)(o))
				continue
			}
			// The kernel stores all 32 lanes: the padding rows' go to tmp,
			// not past the end of this vector's output.
			var tmp [panelRows]float32
			mulPanel(panel, xt, &tmp)
			copy(o, tmp[:])
		}
	}
}
