package leaktest

import (
	"strings"
	"testing"
)

// A goroutine started after the snapshot shows up with its stack while
// it runs, and settle reports nothing once it has exited. If the
// runtime.Stack headers stopped parsing, goroutines would return an
// empty map and every leak-checked package would pass unchecked.
func TestGoroutinesSeesParkedGoroutine(t *testing.T) {
	before := goroutines()
	if len(before) == 0 {
		t.Fatal("goroutines() found none, not even this test's")
	}
	stop := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-stop
	}()
	<-started

	var parked []string
	for id, stack := range goroutines() {
		if _, ok := before[id]; !ok && strings.Contains(stack, "TestGoroutinesSeesParkedGoroutine") {
			parked = append(parked, stack)
		}
	}
	if len(parked) != 1 {
		t.Fatalf("new goroutines naming the test = %q; want the parked one", parked)
	}

	close(stop)
	if leaked := settle(before); len(leaked) != 0 {
		t.Fatalf("settle after the goroutine exited = %q; want none", leaked)
	}
}
