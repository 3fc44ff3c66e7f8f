package workloads

import (
	"math"
	"testing"

	"codar/internal/circuit"
	"codar/internal/sim"
)

// TestQFTIsExactDFT validates the QFT generator against the DFT matrix on
// every basis state.
func TestQFTIsExactDFT(t *testing.T) {
	const n = 4
	const N = 1 << n
	fwd := circuit.Decompose(QFT(n))
	for x := 0; x < N; x++ {
		st := sim.MustNewState(n)
		st.SetAmplitude(0, 0)
		st.SetAmplitude(x, 1)
		if err := st.ApplyCircuit(fwd); err != nil {
			t.Fatal(err)
		}
		var overlap complex128
		for k := 0; k < N; k++ {
			ref := cmplxExp(2*math.Pi*float64(x*k)/float64(N)) / complex(math.Sqrt(float64(N)), 0)
			overlap += cmplxConj(ref) * st.Amplitude(k)
		}
		if math.Abs(real(overlap)*real(overlap)+imag(overlap)*imag(overlap)-1) > 1e-9 {
			t.Fatalf("QFT row %d does not match the DFT (|overlap|^2 = %g)", x, real(overlap)*real(overlap)+imag(overlap)*imag(overlap))
		}
	}
}

// TestInverseQFTInvertsQFT checks InverseQFT(n) composes with QFT(n) to
// the identity.
func TestInverseQFTInvertsQFT(t *testing.T) {
	const n = 4
	fwd := circuit.Decompose(QFT(n))
	inv := circuit.Decompose(InverseQFT(n))
	for basis := 0; basis < 1<<n; basis++ {
		st := sim.MustNewState(n)
		st.SetAmplitude(0, 0)
		st.SetAmplitude(basis, 1)
		want := st.Clone()
		if err := st.ApplyCircuit(fwd); err != nil {
			t.Fatal(err)
		}
		if err := st.ApplyCircuit(inv); err != nil {
			t.Fatal(err)
		}
		if !st.EqualUpToPhase(want, 1e-9) {
			t.Fatalf("QFT then InverseQFT does not restore basis %d", basis)
		}
	}
}

func cmplxExp(theta float64) complex128 {
	return complex(math.Cos(theta), math.Sin(theta))
}

func cmplxConj(z complex128) complex128 { return complex(real(z), -imag(z)) }
