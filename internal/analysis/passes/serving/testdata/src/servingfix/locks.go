// Package servingfix is the serving pass's lock-rule fixture. locks.go
// seeds each way a critical section can break the lock rule: a manual
// unlock, a lock that is not a top-level statement, a second lock, a
// stray unlock, and blocking under the lock. Its clean cases are the
// deferred rewrites. copies.go holds the by-value lock copies, which go
// vet's copylocks check reports. The context mints are servingctxfix.
package servingfix

import (
	"os"
	"sync"
	"time"
)

type guarded struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	wg    sync.WaitGroup
	n     int
	later func()
}

// missingUnlockOnBranch leaks the lock on the early-return path.
func (g *guarded) missingUnlockOnBranch(fail bool) int {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) must be a top-level statement of its function, followed by defer g\.mu\.Unlock\(\)`
	if fail {
		return -1
	}
	n := g.n
	g.mu.Unlock()
	return n
}

// panicsWhileLocked leaks the lock on the panic path.
func (g *guarded) panicsWhileLocked(bad bool) {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) must be .* followed by defer g\.mu\.Unlock\(\)`
	if bad {
		panic("corrupt state")
	}
	g.mu.Unlock()
}

// deferCovers is the correct version of panicsWhileLocked. Clean.
func (g *guarded) deferCovers(bad bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if bad {
		panic("corrupt state")
	}
	g.n++
}

// conditionalDefer registers the unlock on only one branch.
func (g *guarded) conditionalDefer(c bool) {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) must be .* followed by defer g\.mu\.Unlock\(\)`
	if c {
		defer g.mu.Unlock()
	}
	g.n++
}

// doubleLock self-deadlocks; neither lock is released by a defer.
func (g *guarded) doubleLock() {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) must be`
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) must be`
	g.n++
	g.mu.Unlock()
}

// relockWhileHeld takes the write lock under its own read lock.
func (g *guarded) relockWhileHeld() {
	g.rw.RLock() // want `serving: g\.rw\.RLock\(\) holds g\.rw across another g\.rw\.Lock\(\)`
	defer g.rw.RUnlock()
	g.rw.Lock()
	defer g.rw.Unlock()
}

// unlockNotHeld releases a mutex this function never locked.
func (g *guarded) unlockNotHeld() {
	g.mu.Unlock() // want `serving: g\.mu\.Unlock\(\) outside a Lock/defer pair`
}

// unlockAfterDefer releases the lock twice.
func (g *guarded) unlockAfterDefer() {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) holds g\.mu across another g\.mu\.Unlock\(\)`
	defer g.mu.Unlock()
	g.n++
	g.mu.Unlock()
}

// readLeaksOnBranch leaks a read lock on the early return.
func (g *guarded) readLeaksOnBranch(fail bool) int {
	g.rw.RLock() // want `serving: g\.rw\.RLock\(\) must be .* followed by defer g\.rw\.RUnlock\(\)`
	if fail {
		return 0
	}
	n := g.n
	g.rw.RUnlock()
	return n
}

// sleepWhileLocked parks the scheduler inside the critical section.
func (g *guarded) sleepWhileLocked() {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) holds g\.mu across time\.Sleep at line \d+`
	defer g.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// waitWhileLocked waits for workers that may need the lock.
func (g *guarded) waitWhileLocked() {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) holds g\.mu across sync\.WaitGroup\.Wait`
	defer g.mu.Unlock()
	g.wg.Wait()
}

// recvWhileLocked blocks on a channel inside the critical section.
func (g *guarded) recvWhileLocked(ch chan int) int {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) holds g\.mu across a channel receive`
	defer g.mu.Unlock()
	return <-ch
}

// sendWhileLocked blocks on a channel send inside the critical section.
func (g *guarded) sendWhileLocked(ch chan int) {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) holds g\.mu across a channel send`
	defer g.mu.Unlock()
	ch <- g.n
}

// rangeWhileLocked drains a channel inside the critical section.
func (g *guarded) rangeWhileLocked(ch chan int) {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) holds g\.mu across a range over a channel`
	defer g.mu.Unlock()
	for v := range ch {
		g.n += v
	}
}

// selectWhileLocked waits in a select with no default.
func (g *guarded) selectWhileLocked(ch chan int, stop chan struct{}) {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) holds g\.mu across a channel receive`
	defer g.mu.Unlock()
	select {
	case v := <-ch:
		g.n = v
	case <-stop:
	}
}

// readFileWhileLocked does disk I/O inside the critical section.
func (g *guarded) readFileWhileLocked(path string) ([]byte, error) {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) holds g\.mu across os\.ReadFile`
	defer g.mu.Unlock()
	return os.ReadFile(path)
}

// unlockBeforeRecv releases before blocking, but by hand.
func (g *guarded) unlockBeforeRecv(ch chan int) int {
	g.mu.Lock() // want `serving: g\.mu\.Lock\(\) must be`
	g.n++
	g.mu.Unlock()
	return <-ch
}

// bumpThenRecv is unlockBeforeRecv with the section in its own
// function. Clean.
func (g *guarded) bumpThenRecv(ch chan int) int {
	g.add(1)
	return <-ch
}

func (g *guarded) add(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n += v
}

// pollWhileLocked uses a select with a default, which never blocks.
// Clean.
func (g *guarded) pollWhileLocked(ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case v := <-ch:
		g.n = v
	default:
	}
}

// lockPerIter locks inside a loop body, not at the top of a function.
func (g *guarded) lockPerIter(n int) {
	for i := 0; i < n; i++ {
		g.mu.Lock() // want `serving: g\.mu\.Lock\(\) must be a top-level statement`
		g.n += i
		g.mu.Unlock()
	}
}

// addPerIter is lockPerIter with one section per call. Clean.
func (g *guarded) addPerIter(n int) {
	for i := 0; i < n; i++ {
		g.add(i)
	}
}

// closureUnderLock defines, but does not run, a blocking closure under
// the lock; the closure is a body of its own. Clean.
func (g *guarded) closureUnderLock(ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.later = func() {
		g.n = <-ch
	}
}
