package kernels

import (
	"os"
	"strings"
	"testing"
)

// TestSigmoidSelfCheckAccepts keeps the startup self-check from hiding a
// broken vector body: on a host with AVX2 and FMA, and no GODEBUG override
// of CPU features (which can move math.Exp off its FMA branch), the
// four-lane Sigmoid must be the one dispatched.
func TestSigmoidSelfCheckAccepts(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("host lacks AVX2+FMA; Sigmoid runs the scalar loop")
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("CPU features overridden by GODEBUG")
	}
	if !useSigmoidAVX2 {
		t.Fatal("startup self-check rejected the AVX2 sigmoid on an AVX2+FMA host")
	}
}
