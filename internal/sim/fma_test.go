package sim

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// fusedOp matches a fused multiply-add or multiply-subtract in the
// compiler's assembly listing: FMADDD and friends on arm64 and riscv64,
// FMADD on ppc64le and s390x, with their negated and single forms.
var fusedOp = regexp.MustCompile(`\tFN?M(ADD|SUB)[DS]?\s`)

// TestNoFusedMultiplyAdd cross-compiles the packages that compute the
// simulated clock and the cost model for every architecture whose
// compiler fuses x*y + z, and fails on any fused instruction: a fused
// sum rounds once where amd64 rounds twice, so the clock would lose its
// bits off amd64. A product on the clock is written float64(x*y), which
// the language rounds on its own. The AXPY kernel (oocarray) computes
// values, not the clock, and is not checked.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		if goTool, err = exec.LookPath("go"); err != nil {
			t.Skip("no go tool to cross-compile with")
		}
	}
	const mod = "github.com/ooc-hpf/passion/internal/"
	pkgs := []string{"sim", "iosim", "cost", "mp", "parity", "collio", "trace", "exec"}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		args := []string{"build", "-gcflags=-S"}
		for _, p := range pkgs {
			args = append(args, mod+p)
		}
		cmd := exec.Command(goTool, args...)
		cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if fusedOp.MatchString(sc.Text()) {
				t.Errorf("GOARCH=%s: fused multiply-add on the clock: %s", arch, sc.Text())
			}
		}
	}
}
