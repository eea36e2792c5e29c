package dist

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when goroutines outlive its tests: sessions,
// workers and their connections must all be torn down. After the last
// test, every goroutine running this module's code must be gone within a
// grace period; the stacks of those that are not are dumped. Goroutines
// of the runtime and the testing package (the fuzzing engine's signal
// handler, for one) do not count.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(10 * time.Second)
		left := moduleGoroutines()
		for len(left) > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			left = moduleGoroutines()
		}
		if len(left) > 0 {
			fmt.Fprintf(os.Stderr, "dist: %d goroutines outlived the tests:\n\n%s\n", len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// moduleGoroutines returns the stacks of the goroutines, other than the
// caller's, that run or were started by code of this module.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i > 0 && strings.Contains(g, "cstf/") {
			out = append(out, g)
		}
	}
	return out
}
