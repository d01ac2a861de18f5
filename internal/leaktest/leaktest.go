// Package leaktest fails a package's tests when goroutines they start
// outlive them. Call Main from the package's TestMain:
//
//	func TestMain(m *testing.M) { leaktest.Main(m) }
//
// A goroutine leak is a lifecycle bug the race detector cannot see: a
// poller whose stop function forgets to signal it, or a loop with no
// stop case, keeps running after every test has returned. Main records
// the goroutines alive before the tests run, and after a passing run
// waits for every goroutine started since to exit. Those still running
// when the wait ends are printed with their stacks, and the test binary
// exits 1.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// settleTimeout bounds the wait for goroutines that are shutting down
// when the last test returns: connection readers seeing EOF, timers
// firing their final tick.
const settleTimeout = 5 * time.Second

// Main runs the tests and exits with their status, or with 1 when they
// pass but leave goroutines behind.
func Main(m *testing.M) {
	before := goroutines()
	code := m.Run()
	if code == 0 {
		if leaked := settle(before); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leaktest: %d goroutine(s) outlived the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// settle polls until no goroutine outside before is running, or the
// timeout passes, and returns the stacks of those left, sorted.
func settle(before map[string]string) []string {
	deadline := time.Now().Add(settleTimeout)
	for {
		var leaked []string
		for id, stack := range goroutines() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			sort.Strings(leaked)
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// goroutines returns every live goroutine's stack, keyed by its id.
func goroutines() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, stack := range strings.Split(string(buf), "\n\n") {
		// Each stack opens with "goroutine <id> [<state>]:".
		head, _, _ := strings.Cut(stack, " [")
		if id, ok := strings.CutPrefix(head, "goroutine "); ok {
			out[id] = strings.TrimSpace(stack)
		}
	}
	return out
}
