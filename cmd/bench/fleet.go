package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"anufs/internal/placement"
	"anufs/internal/sdk"
	"anufs/internal/wire"
)

// Process hygiene: every child runs in its own process group and is
// registered in procs; killAll SIGKILLs the groups and waits, and is run on
// normal exit, on SIGINT/SIGTERM, and from guard() when any bench goroutine
// panics.

type proc struct {
	name string
	cmd  *exec.Cmd
	log  string // stderr file
	http string // observability address
	addr string // wire address
	dir  string // journal dir, "" when volatile
	dead bool
}

var (
	procsMu sync.Mutex
	procs   = map[*proc]bool{}
)

func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	p := &proc{name: name, cmd: cmd, log: logPath}
	procsMu.Lock()
	defer procsMu.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	procs[p] = true
	return p, nil
}

// kill SIGKILLs the child's process group and reaps it.
func (p *proc) kill() {
	procsMu.Lock()
	defer procsMu.Unlock()
	if p.dead {
		return
	}
	p.dead = true
	delete(procs, p)
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	_ = p.cmd.Wait() // "signal: killed" is the expected outcome
}

func killAll() {
	procsMu.Lock()
	all := make([]*proc, 0, len(procs))
	for p := range procs {
		all = append(all, p)
	}
	procsMu.Unlock()
	for _, p := range all {
		p.kill()
	}
}

// guard is deferred first in every goroutine the bench starts: a panic
// there would otherwise end the process with the fleet still running.
func guard() {
	if r := recover(); r != nil {
		killAll()
		panic(r)
	}
}

func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(bytes.TrimSpace(b))
}

// freeAddr reserves a loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitListening polls until addr accepts or the process dies.
func (p *proc) waitListening(addr string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		if p.cmd.ProcessState != nil || syscall.Kill(p.cmd.Process.Pid, 0) != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s never listened on %s:\n%s", p.name, addr, p.logTail())
}

// fleet is one launched topology.
type fleet struct {
	dir     string
	daemons []*proc // data daemons, index = fleet daemon ID (Topology A) or the one daemon (B)
	standby *proc
	gateway *proc
	names   []string // file sets, indexed like op.FileSet
	records []int
	owner   []int // static owner daemon per file set (Topology A)
	cm      *placement.ClusterMap
	setup   time.Duration
}

// all lists every child of the fleet.
func (f *fleet) all() []*proc {
	out := append([]*proc{}, f.daemons...)
	if f.standby != nil {
		out = append(out, f.standby)
	}
	if f.gateway != nil {
		out = append(out, f.gateway)
	}
	return out
}

func (f *fleet) stop() {
	for _, p := range f.all() {
		p.kill()
	}
	_ = os.RemoveAll(f.dir)
}

// target is the address clients of the workload talk to.
func (f *fleet) target() string {
	if f.gateway != nil {
		return f.gateway.addr
	}
	return f.daemons[0].addr
}

// callTimeout is the per-call deadline of every connection the bench opens.
// Each function that dials builds its sdk.Options literally — one pipelined
// connection per target, no health pings (the only traffic is the
// workload's), this deadline — so that anufsvet's wireops rule can see it.
const callTimeout = 30 * time.Second

// launch starts w's topology in a fresh directory under base, populates it
// and forces the first durable flush. The elapsed time is the set-up time.
func launch(bins binaries, base string, w workloadSpec) (_ *fleet, err error) {
	start := time.Now()
	dir, err := os.MkdirTemp(base, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	f.names, f.records = fileSetNames(w)
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	// Ports come from 127.0.0.1:0, drawn just before the process that binds
	// them starts — except daemon 1's wire port, which the authority's
	// roster needs up front.
	newProc := func(name, bin, addr string, journaled bool, args ...string) (*proc, error) {
		httpAddr, err := freeAddr()
		if err == nil && addr == "" {
			addr, err = freeAddr()
		}
		if err != nil {
			return nil, err
		}
		args = append(args, "-listen", addr, "-http", httpAddr)
		jdir := ""
		if journaled {
			jdir = filepath.Join(dir, name+"-journal")
			args = append(args, "-journal-dir", jdir)
		}
		p, err := startProc(name, bin, filepath.Join(dir, name+".log"), args...)
		if err != nil {
			return nil, err
		}
		p.addr, p.http, p.dir = addr, httpAddr, jdir
		// Each process is up before the next one starts: a joiner or a
		// shipper that finds its peer absent backs off, and set-up time
		// would depend on who won the race.
		return p, p.waitListening(addr)
	}

	if w.TopologyB {
		d, err := newProc("d0", bins.anufsd, "", false, "-filesets", fmt.Sprint(len(f.names)))
		if err != nil {
			return nil, err
		}
		f.daemons = []*proc{d}
		if err := f.populateDirect(); err != nil {
			return nil, err
		}
		f.setup = time.Since(start)
		return f, nil
	}

	// Topology A. The data-path overrides: one server per daemon, no
	// modelled op cost, and no timer-driven checkpoints, so "durable ops
	// checkpoint, nothing else does".
	preCreated := 0
	if w.Volumes[0].Name == "" {
		preCreated = w.Volumes[0].FileSets
	}
	common := []string{"-speeds", "1", "-opcost", "0", "-checkpoint-interval", "0", "-filesets", fmt.Sprint(preCreated)}
	with := func(args ...string) []string { return append(args, common...) }
	if f.standby, err = newProc("standby", bins.anufsd, "", true, with("-standby")...); err != nil {
		return nil, err
	}
	a0, err := freeAddr()
	if err != nil {
		return nil, err
	}
	a1, err := freeAddr()
	if err != nil {
		return nil, err
	}
	as := f.standby.addr
	d0, err := newProc("d0", bins.anufsd, a0, true, with("-fleet", "0",
		"-fleet-authority", fmt.Sprintf("0=%s@1,1=%s@1", a0, a1),
		"-replicate-to", as, "-replicate-sync")...)
	if err != nil {
		return nil, err
	}
	f.daemons = append(f.daemons, d0)
	d1, err := newProc("d1", bins.anufsd, a1, true, with("-fleet", "1",
		"-fleet-join", a0, "-fleet-standby", as, "-fleet-speed", "1")...)
	if err != nil {
		return nil, err
	}
	f.daemons = append(f.daemons, d1)
	if err := f.populateFleet(w); err != nil {
		return nil, err
	}
	if w.ViaGateway {
		// After population: a gateway whose cached map predates a file set
		// answers "not in the cluster map" without refetching (README,
		// finding a).
		f.gateway, err = newProc("gw", bins.anufsgw, "", false, "-authority", a0, "-authority-standby", as)
		if err != nil {
			return nil, err
		}
	}
	f.setup = time.Since(start)
	return f, nil
}

// creates returns the population batch for file set fs: every record at
// its seq-0 value.
func (f *fleet) creates(fs int) []wire.BatchItem {
	items := make([]wire.BatchItem, f.records[fs])
	for p := range items {
		rec := recordFor(fs, p, 0)
		items[p] = wire.BatchItem{Op: wire.OpCreate, Path: pathName(p), Record: &rec}
	}
	return items
}

func batchErr(results []wire.BatchResult) error {
	for _, r := range results {
		if r.Err != "" {
			return fmt.Errorf("batch item: %s", r.Err)
		}
	}
	return nil
}

// populateFleet creates the workload's volumes, file sets and records
// through an sdk client, ending each file set with a durable batch — the
// per-file-set flush that replaces sdk.Client.Sync (README, finding b).
func (f *fleet) populateFleet(w workloadSpec) error {
	opts := sdk.Options{Authority: f.daemons[0].addr, PoolSize: 1, HealthInterval: -1, Timeout: callTimeout}
	cl, err := sdk.NewClient(opts)
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, v := range w.Volumes {
		if v.Name == "" {
			continue
		}
		if _, err := cl.VolumeCreate(v.Name); err != nil {
			return fmt.Errorf("volume %s: %w", v.Name, err)
		}
	}
	for fs, name := range f.names {
		if w.Volumes[0].Name != "" {
			if err := cl.CreateFileSet(name); err != nil {
				return fmt.Errorf("create file set %s: %w", name, err)
			}
		}
		items := f.creates(fs)
		for len(items) > 0 {
			n := min(len(items), wire.MaxBatchItems)
			results, err := cl.Router().Batch(name, n == len(items), items[:n])
			if err == nil {
				err = batchErr(results)
			}
			if err != nil {
				return fmt.Errorf("populate %s: %w", name, err)
			}
			items = items[n:]
		}
	}
	cm, err := cl.Router().Refresh()
	if err != nil {
		return err
	}
	return f.setOwners(cm)
}

func (f *fleet) setOwners(cm *placement.ClusterMap) error {
	f.cm = cm
	f.owner = make([]int, len(f.names))
	for i, name := range f.names {
		d, ok := cm.Owner(name)
		if !ok || d.ID >= len(f.daemons) {
			return fmt.Errorf("file set %s has no owner in map epoch %d", name, cm.Epoch)
		}
		f.owner[i] = d.ID
	}
	return nil
}

// populateDirect fills the single Topology B daemon over one connection
// and ends with the sync barrier (a store flush: B runs without a journal).
func (f *fleet) populateDirect() error {
	c, err := sdk.Dial(f.daemons[0].addr, sdk.Options{PoolSize: 1, HealthInterval: -1, Timeout: callTimeout})
	if err != nil {
		return err
	}
	defer c.Close()
	for fs, name := range f.names {
		resp, err := c.Call(wire.Request{Op: wire.OpBatch, FileSet: name, Batch: f.creates(fs)})
		if err == nil {
			err = batchErr(resp.Results)
		}
		if err != nil {
			return fmt.Errorf("populate %s: %w", name, err)
		}
	}
	_, err = c.Call(wire.Request{Op: wire.OpSync})
	return err
}

// binaries are the product programs the bench drives, built from the
// checkout it runs in.
type binaries struct{ anufsd, anufsgw string }

// repoRoot walks up from the working directory to the anufs module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module anufs\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the anufs repository (no go.mod with module anufs above the working directory)")
		}
		dir = parent
	}
}

// buildBinaries compiles anufsd and anufsgw from the checkout into its
// .bench_build directory; up to date, this is a fraction of a second.
func buildBinaries(root string) (binaries, string, error) {
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return binaries{}, "", err
	}
	cmd := exec.Command("go", "build", "-o", out+string(filepath.Separator), "./cmd/anufsd", "./cmd/anufsgw")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, "", fmt.Errorf("go build: %w\n%s", err, b)
	}
	return binaries{anufsd: filepath.Join(out, "anufsd"), anufsgw: filepath.Join(out, "anufsgw")}, out, nil
}
