package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it creates, relative
// to the repository root (and named in the root .gitignore).
const buildDir = ".bench_build"

// findRoot locates the reqlens checkout: the benchmark runs from the
// root (bench/run.sh) or from bench/ (`go -C bench run .`).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "reqlens", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no reqlens checkout here: cmd/reqlens/main.go not found in . or ..")
}

// buildCLI compiles cmd/reqlens from source into the build directory.
func buildCLI(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "reqlens")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/reqlens")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/reqlens: %v\n%s", err, out)
	}
	return bin, nil
}

// childRun is one finished reqlens process.
type childRun struct {
	HostS  float64 // start -> exit, host wall
	CPUS   float64 // user + sys, host CPU
	RSSMB  float64 // ru_maxrss
	Stdout []byte
	Err    string // non-empty if the process did not exit 0

	// Traced runs only.
	Metrics []byte // -metrics file
	Journal []byte // -journal file
}

func (c childRun) sha256() string {
	sum := sha256.Sum256(c.Stdout)
	return hex.EncodeToString(sum[:])
}

// runChild runs `reqlens args... -seed seed` in a fresh temporary
// working directory (so no on-disk state can leak between repetitions)
// with stdout to a file, and removes the directory afterwards. With
// traced set the run also writes -metrics and -journal files there.
func runChild(root, bin string, args []string, seed int64, traced bool) (childRun, error) {
	var c childRun
	tmpRoot := filepath.Join(root, buildDir, "run")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return c, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "child-")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)

	argv := append(append([]string(nil), args...), "-seed", strconv.FormatInt(seed, 10))
	if traced {
		argv = append(argv, "-metrics", "metrics.prom", "-journal", "journal.jsonl")
	}
	out, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		return c, err
	}
	defer out.Close()
	cmd := exec.Command(bin, argv...)
	cmd.Dir = dir
	cmd.Stdout = out
	cmd.Stderr = os.Stderr

	t0 := time.Now()
	runErr := cmd.Run()
	c.HostS = time.Since(t0).Seconds()
	if runErr != nil {
		c.Err = runErr.Error()
	}
	if ps := cmd.ProcessState; ps != nil {
		c.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if c.Stdout, err = os.ReadFile(filepath.Join(dir, "stdout.txt")); err != nil {
		return c, err
	}
	if traced && runErr == nil {
		if c.Metrics, err = os.ReadFile(filepath.Join(dir, "metrics.prom")); err != nil {
			return c, err
		}
		if c.Journal, err = os.ReadFile(filepath.Join(dir, "journal.jsonl")); err != nil {
			return c, err
		}
	}
	return c, nil
}
