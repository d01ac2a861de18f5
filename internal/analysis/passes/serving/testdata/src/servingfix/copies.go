package servingfix

import "sync"

// holder is a lock-bearing struct. The serving pass does not report
// copies of it; go vet's copylocks check reports each function below
// but pointerParam, and cmd/additivity-lint's smoke test holds vet to
// that.
type holder struct {
	mu sync.Mutex
	v  int
}

// copyParam receives the lock by value.
func copyParam(h holder) int {
	return h.v
}

// copyAssign snapshots the whole struct, lock included.
func copyAssign(h *holder) {
	snapshot := *h
	_ = snapshot
}

// copyRange copies each element, lock included.
func copyRange(hs []holder) int {
	total := 0
	for _, h := range hs {
		total += h.v
	}
	return total
}

// pointerParam takes the address. Clean.
func pointerParam(h *holder) int {
	return h.v
}
