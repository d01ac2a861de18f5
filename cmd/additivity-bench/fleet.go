package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"additivity/internal/memo"
	"additivity/internal/memo/peer"
	"additivity/internal/service"
)

// fleet is the set of replicas serving one workload phase: additivityd
// processes, or service servers inside the benchmark on loopback
// listeners (the traced replay).
type fleet struct {
	urls  []string
	procs []*replica // daemon fleets only
	dir   string     // the shared -cache-dir, "" when memory-only
	stop  func() error
}

// procs is the GOMAXPROCS of every daemon and of the benchmark itself.
// On a two-vCPU host it gives the daemon and the load generator about a
// core each, where with the default two Ps per process their runtimes'
// threads contend for both cores: repeated warm-hit runs then read ~30%
// slower and spread wider on every rate, latency and CPU metric.
const procs = 1

// ctl is the control-plane client for /healthz and /statsz, kept off
// the load connections.
var ctl = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// freeAddrs reserves n loopback addresses. Replicas that name each other
// with -peers need their addresses before any of them starts.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

func peersOf(urls []string, i int) []string {
	var out []string
	for j, u := range urls {
		if j != i {
			out = append(out, u)
		}
	}
	return out
}

// daemonArgs is replica i's additivityd flag list: its address, the
// shared cache dir when the workload has one, and its siblings as peers.
func daemonArgs(w *workloadDef, i int, addrs []string, dir string) []string {
	args := []string{"-addr", addrs[i]}
	if w.cacheDir {
		args = append(args, "-cache-dir", dir)
	}
	if w.peers {
		urls := make([]string, len(addrs))
		for j, a := range addrs {
			urls[j] = "http://" + a
		}
		args = append(args, "-peers", strings.Join(peersOf(urls, i), ","))
	}
	return args
}

// replica is one additivityd process.
type replica struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer // read only after exited is closed
	exited chan struct{}
}

// startDaemons boots the workload's replicas on fresh addresses and a
// fresh cache dir under tmp and waits until every /healthz answers 200.
func startDaemons(ctx context.Context, bin string, w *workloadDef, tmp string) (*fleet, error) {
	addrs, err := freeAddrs(w.replicas)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	if w.cacheDir {
		f.dir = filepath.Join(tmp, "cache")
	}
	f.stop = func() error {
		var errs []error
		for _, r := range f.procs {
			errs = append(errs, r.stop())
		}
		return errors.Join(errs...)
	}
	for i := range addrs {
		r := &replica{cmd: exec.Command(bin, daemonArgs(w, i, addrs, f.dir)...), exited: make(chan struct{})}
		r.cmd.Stderr = &r.stderr
		r.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
		// A replica must not outlive the benchmark, even if the benchmark
		// is killed.
		r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := r.cmd.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("start additivityd: %w", err)
		}
		go func() {
			_ = r.cmd.Wait()
			close(r.exited)
		}()
		f.procs = append(f.procs, r)
		f.urls = append(f.urls, "http://"+addrs[i])
	}
	for i, r := range f.procs {
		if err := r.waitHealthy(ctx, f.urls[i]); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (r *replica) waitHealthy(ctx context.Context, url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-r.exited:
			return fmt.Errorf("additivityd exited during start-up: %s", strings.TrimSpace(r.stderr.String()))
		default:
		}
		if resp, err := ctl.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("additivityd at %s not healthy", url)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the replica with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (r *replica) stop() error {
	select {
	case <-r.exited:
		return nil
	default:
	}
	_ = r.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-r.exited:
		return nil
	case <-time.After(15 * time.Second):
		_ = r.cmd.Process.Kill()
		<-r.exited
		return errors.New("additivityd did not drain within 15s; killed")
	}
}

// cpuNS is the process's CPU time, user and system, over all its
// threads, in ns. It reads the process's CPU-time clock, the clock id
// clock_getcpuclockid(3) returns (CPUCLOCK_SCHED of the pid), which
// counts in ns where /proc/<pid>/stat counts in 10 ms ticks.
func (r *replica) cpuNS() (int64, error) {
	clock := ^int32(r.cmd.Process.Pid)<<3 | 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("read the CPU clock of additivityd: %w", errno)
	}
	return ts.Nano(), nil
}

// peakRSSKB is the process's VmHWM, read from /proc/<pid>/status.
func (r *replica) peakRSSKB() (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", r.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (f *fleet) cpuNS() (int64, error) {
	var sum int64
	for _, r := range f.procs {
		t, err := r.cpuNS()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func (f *fleet) peakRSSKB() (int64, error) {
	var sum int64
	for _, r := range f.procs {
		kb, err := r.peakRSSKB()
		if err != nil {
			return 0, err
		}
		sum += kb
	}
	return sum, nil
}

// stats fetches every replica's /statsz.
func (f *fleet) stats() ([]service.Stats, error) {
	out := make([]service.Stats, len(f.urls))
	for i, u := range f.urls {
		resp, err := ctl.Get(u + "/statsz")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode /statsz: %w", err)
		}
	}
	return out, nil
}

// entries counts the complete entries in the shared cache dir, both
// tiers; 0 for memory-only fleets.
func (f *fleet) entries() (int, error) {
	if f.dir == "" {
		return 0, nil
	}
	n := 0
	for _, d := range []string{f.dir, filepath.Join(f.dir, "cold")} {
		list, err := os.ReadDir(d)
		if err != nil {
			return 0, err
		}
		for _, e := range list {
			if strings.HasSuffix(e.Name(), ".memo") {
				n++
			}
		}
	}
	return n, nil
}

// startInProcess serves the workload from service servers inside this
// process, wired as the daemon wires them (memo cache on the shared dir,
// peer clients to the sibling listeners), each behind the benchmark's
// handler wrapper. With a tracer the wrapper records server spans and
// peer fetches are timed; without one the wrapper passes through.
func startInProcess(w *workloadDef, tmp string, tr *tracer) (*fleet, error) {
	f := &fleet{}
	if w.cacheDir {
		f.dir = filepath.Join(tmp, "cache")
	}
	lns := make([]net.Listener, w.replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	servers := make([]*service.Server, w.replicas)
	https := make([]*http.Server, w.replicas)
	served := make(chan error, w.replicas)
	for i := range lns {
		cache, err := memo.New(memo.Options{Dir: f.dir})
		if err == nil && w.peers {
			var pc *peer.Client
			if pc, err = peer.NewClient(peer.Options{Peers: peersOf(f.urls, i)}); err == nil {
				var src memo.PeerSource = pc
				if tr != nil {
					src = tracedPeers{PeerSource: pc, tr: tr}
				}
				cache.SetPeers(src)
			}
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			for _, h := range https[:i] {
				h.Close()
			}
			return nil, err
		}
		servers[i] = service.NewServer(service.Options{Cache: cache})
		https[i] = &http.Server{Handler: traceHandler{next: servers[i], tr: tr}}
		go func(h *http.Server, ln net.Listener) { served <- h.Serve(ln) }(https[i], lns[i])
	}
	f.stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		var errs []error
		for i, h := range https {
			servers[i].StartDraining()
			errs = append(errs, servers[i].Drain(ctx), h.Shutdown(ctx))
		}
		for range https {
			if err := <-served; !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
	return f, nil
}
