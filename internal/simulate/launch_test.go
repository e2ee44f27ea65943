package simulate

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain doubles as the helper process the launcher tests start: with
// QFE_LAUNCH_HELPER set, the test binary plays a server instead of running
// the tests.
func TestMain(m *testing.M) {
	switch os.Getenv("QFE_LAUNCH_HELPER") {
	case "serve":
		// Like qfe-server: bind -addr, print the bound address, serve (here,
		// the pid, so a test can tell process generations apart).
		fs := flag.NewFlagSet("helper", flag.ExitOnError)
		addr := fs.String("addr", "", "listen address")
		_ = fs.Parse(os.Args[1:])
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("helper: listening on %s (pid %d)\n", ln.Addr(), os.Getpid())
		_ = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(w, os.Getpid())
		}))
		os.Exit(1)
	case "exit":
		fmt.Println("helper: giving up before listening")
		os.Exit(3)
	}
	os.Exit(m.Run())
}

func helperLauncher(t *testing.T, mode string) *launcher {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("QFE_LAUNCH_HELPER", mode)
	return &launcher{name: "helper", bin: bin}
}

// servedPid fetches the helper's pid over a fresh connection.
func servedPid(t *testing.T, url string) string {
	t.Helper()
	c := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestLauncherRestartsOnFirstAddress: the address comes from the listening
// line, and a restart after SIGKILL serves on that same address.
func TestLauncherRestartsOnFirstAddress(t *testing.T) {
	l := helperLauncher(t, "serve")
	if err := l.start(); err != nil {
		t.Fatal(err)
	}
	defer l.kill()
	first := l.addr
	if host, port, err := net.SplitHostPort(first); err != nil || host != "127.0.0.1" || port == "0" {
		t.Fatalf("parsed address %q", first)
	}
	pid := servedPid(t, l.url())

	if err := l.kill(); err == nil || !strings.Contains(err.Error(), "killed") {
		t.Errorf("kill reaped %v, want a SIGKILLed process", err)
	}
	if err := l.start(); err != nil {
		t.Fatal(err)
	}
	if l.addr != first {
		t.Fatalf("restart moved from %s to %s", first, l.addr)
	}
	if again := servedPid(t, l.url()); again == pid {
		t.Fatalf("pid %s still serving after the restart", pid)
	}
}

// TestLauncherFailsWhenProcessExitsEarly: a process that exits before its
// listening line fails the start as soon as it exits.
func TestLauncherFailsWhenProcessExitsEarly(t *testing.T) {
	l := helperLauncher(t, "exit")
	t0 := time.Now()
	err := l.start()
	if err == nil {
		l.kill()
		t.Fatal("start succeeded without a listening line")
	}
	if !strings.Contains(err.Error(), "exit status 3") {
		t.Errorf("error %q does not report how the process ended", err)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("start took %s to notice the exit", d)
	}
}
