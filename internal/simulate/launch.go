package simulate

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// launcher runs one server binary (qfe-server or qfe-router) for the
// harnesses. The first start passes -addr 127.0.0.1:0 and reads the bound
// address from the "listening on ADDR" line the binary prints on stdout
// once it has recovered its state and bound its port; restarts pass that
// address again, so clients keep one base URL across kills.
type launcher struct {
	name string
	bin  string
	args []string // everything but -addr
	addr string   // host:port, set by the first start

	mu      sync.Mutex
	cmd     *exec.Cmd
	drained chan struct{} // closed once the process's stdout reaches EOF
}

// start launches the process and returns once it is listening. A process
// that exits before printing its listening line fails the start at once.
func (l *launcher) start() error {
	addr := l.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	cmd := exec.Command(l.bin, append([]string{"-addr", addr}, l.args...)...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("simulate: starting %s: %w", l.name, err)
	}
	listening := make(chan string, 1)
	drained := make(chan struct{})
	l.mu.Lock()
	l.cmd, l.drained = cmd, drained
	l.mu.Unlock()
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				listening <- a
				break
			}
		}
		close(listening)
		// Keep draining so the process never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case a, ok := <-listening:
		if ok {
			if l.addr == "" {
				l.addr = a
			}
			return nil
		}
		return fmt.Errorf("simulate: %s exited before listening (%v)", l.name, l.kill())
	case <-time.After(time.Minute):
		l.kill()
		return fmt.Errorf("simulate: %s did not print its listening line within a minute", l.name)
	}
}

// url is the base URL of the running process.
func (l *launcher) url() string { return "http://" + l.addr }

// kill SIGKILLs the process and reaps it, returning how it ended
// (idempotent: nil when nothing is running).
func (l *launcher) kill() error {
	l.mu.Lock()
	cmd, drained := l.cmd, l.drained
	l.cmd = nil
	l.mu.Unlock()
	if cmd == nil {
		return nil
	}
	_ = cmd.Process.Kill()
	<-drained
	return cmd.Wait()
}
