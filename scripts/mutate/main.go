// Command mutate, run from the repository root, mutation-scores the
// tests of the verifier, the eBPF engine, the scheduler, the socket
// layer and the change-point charts (or of the files named). Each mutant
// swaps one operator (< and <=, > and >=, == and !=, + and -, && and ||)
// or negates one if condition, in AST order, builds its package's test
// binary once through `go test -c -overlay`, one mutant at a time,
// writing no file of the tree, and runs it in the package directory
// under `go tool test2json`. The failing tests are the mutant's kill
// row (stderr), rerun past any test that panics, each test once, so the
// row names every killer; one that does not build or vet is invalid and
// left out of the score. Each mutant runs under -test.timeout, ten times
// the unmutated test binary's run time plus a second, so one that hangs
// is killed by the test it hangs in.
//
// stdout gets each file's score. testdata/survivors.txt lists each
// mutant that survived a run as `file:line:col from→to`, a tab, then
// `killed: <test>` once a test kills it or `equivalent: <reason>` by
// hand. A rerun keeps the notes, names the killers and sorts the
// entries; it exits 1 while a survivor has neither.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

var targets = []string{
	"internal/ebpf/verifier.go", "internal/ebpf/compile.go", "internal/ebpf/vm.go",
	"internal/kernel/sched.go", "internal/netsim/sock.go",
	"internal/control/detector.go", "internal/stats/changepoint.go",
}

const survivorsFile = "scripts/mutate/testdata/survivors.txt"

var swaps = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS, token.GTR: token.GEQ, token.GEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL, token.ADD: token.SUB, token.SUB: token.ADD,
	token.LAND: token.LOR, token.LOR: token.LAND,
}

// A mutant is one edit of one file and what its package's tests made
// of it.
type mutant struct {
	key     string   // file:line:col from→to
	invalid bool     // the mutant did not build
	killers []string // failing top-level tests, or "(timeout)" or "(package)"
	ran     []string // every top-level test's report, in order, over all rounds
	elapsed float64  // seconds the test binaries reported, over all rounds
}

func (m *mutant) String() string {
	switch {
	case m.invalid:
		return m.key + ": invalid"
	case len(m.killers) > 0:
		return m.key + ": killed by " + strings.Join(m.killers, " ")
	}
	return m.key + ": SURVIVED"
}

func main() {
	files := os.Args[1:]
	if len(files) == 0 {
		files = targets
	}
	notes, err := readNotes(survivorsFile)
	if err != nil && !os.IsNotExist(err) {
		fail(err)
	}
	var all []*mutant
	for _, f := range files {
		ms, err := run(".", f, os.Stderr)
		if err != nil {
			fail(err)
		}
		fmt.Println(score(f, ms))
		all = append(all, ms...)
	}
	open := annotate(notes, files, all)
	if err := os.WriteFile(survivorsFile, []byte(render(notes)), 0o644); err != nil {
		fail(err)
	}
	if len(open) > 0 {
		fail(fmt.Errorf("%d survivors neither killed nor annotated as equivalent:\n%s", len(open), strings.Join(open, "\n")))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mutate:", err)
	os.Exit(1)
}

// readNotes reads a survivors file: its entries' notes by key.
func readNotes(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	notes := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if key, note, _ := strings.Cut(line, "\t"); key != "" && key[0] != '#' {
			notes[key] = note
		}
	}
	return notes, err
}

// A site is one mutation of one node of a file: flip applies it and
// returns the undo.
type site struct {
	pos      token.Pos
	from, to string
	flip     func() (undo func())
}

// key names s the way survivors.txt does: file:line:col from→to.
func (s site) key(fset *token.FileSet, file string) string {
	p := fset.Position(s.pos)
	return fmt.Sprintf("%s:%d:%d %s→%s", file, p.Line, p.Column, s.from, s.to)
}

// sites lists f's mutation sites in AST order: every swappable binary
// operator, and every if condition negated.
func sites(f *ast.File) []site {
	var out []site
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if from, to := n.Op, swaps[n.Op]; to != token.ILLEGAL {
				out = append(out, site{n.OpPos, from.String(), to.String(), func() func() {
					n.Op = to
					return func() { n.Op = from }
				}})
			}
		case *ast.IfStmt:
			cond := n.Cond
			out = append(out, site{n.If, "if", "!if", func() func() {
				n.Cond = &ast.UnaryExpr{Op: token.NOT, X: &ast.ParenExpr{X: cond}}
				return func() { n.Cond = cond }
			}})
		}
		return true
	})
	return out
}

// run mutates file, a path under the module at root, site by site and
// tests each mutant, logging its kill row to log.
func run(root, file string, log io.Writer) ([]*mutant, error) {
	path := filepath.Join(root, file)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "mutate")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	abs, _ := filepath.Abs(path)
	mutated, overlay := filepath.Join(tmp, filepath.Base(file)), filepath.Join(tmp, "overlay.json")
	js, _ := json.Marshal(map[string]any{"Replace": map[string]string{abs: mutated}})
	if err := os.WriteFile(overlay, js, 0o644); err != nil {
		return nil, err
	}
	test := func(limit time.Duration) (*mutant, error) {
		var buf bytes.Buffer
		if err := (&printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}).Fprint(&buf, fset, f); err != nil {
			return nil, err
		}
		if err := os.WriteFile(mutated, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		return goTest(root, "./"+filepath.ToSlash(filepath.Dir(file)), overlay, limit)
	}

	// The unmutated package must pass; its test binary's run time sets
	// the -timeout.
	base, err := test(0)
	if err != nil || base.invalid || len(base.killers) > 0 {
		return nil, fmt.Errorf("%s: tests fail before any mutation: %v %v", file, base, err)
	}
	limit := time.Duration(10*base.elapsed*float64(time.Second)) + time.Second
	var ms []*mutant
	ss := sites(f)
	for i, s := range ss {
		undo := s.flip()
		t0 := time.Now()
		m, err := test(limit)
		undo()
		if err != nil {
			return nil, err
		}
		m.key = s.key(fset, file)
		fmt.Fprintf(log, "[%d/%d] %v (%.1fs)\n", i+1, len(ss), m, time.Since(t0).Seconds())
		ms = append(ms, m)
	}
	return ms, nil
}

// goTest builds pkg's test binary under the overlay, into the overlay's
// directory, and collects the failing top-level tests; a build or vet
// error makes the mutant invalid. A test that panics ends the binary's
// run, and with it the tests after it, so the binary is rerun with every
// test that has reported skipped until a round completes or runs
// nothing new: each test runs once, and the kill row is the union.
func goTest(root, pkg, overlay string, limit time.Duration) (*mutant, error) {
	m := &mutant{}
	bin := filepath.Join(filepath.Dir(overlay), "pkg.test")
	build := exec.Command("go", "test", "-c", "-o", bin, "-overlay", overlay, pkg)
	build.Dir = root
	if err := build.Run(); err != nil {
		if _, exited := err.(*exec.ExitError); !exited {
			return nil, err
		}
		m.invalid = true
		return m, nil
	}
	for {
		n := len(m.ran)
		panicked, err := goTestOnce(filepath.Join(root, pkg), bin, limit, m)
		if err != nil || !panicked || len(m.ran) == n {
			slices.Sort(m.killers)
			return m, err
		}
	}
}

// goTestOnce runs the test binary bin in dir, its package's directory,
// on every test but those in m.ran under -test.timeout limit (0 for
// none), adds the failing ones to m.killers and every one that reports
// to m.ran, and tells whether a test panicked. The test that hits the
// limit reports no result: its timeout panic makes it a killer that
// ran. A deadline ten minutes past the limit guards a hang outside the
// test binary.
func goTestOnce(dir, bin string, limit time.Duration, m *mutant) (panicked bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit+10*time.Minute)
	defer cancel()
	args := []string{"tool", "test2json", "-t", bin, "-test.v=test2json", "-test.paniconexit0", "-test.count=1", "-test.timeout=" + limit.String()}
	if len(m.ran) > 0 {
		args = append(args, "-test.skip=^("+strings.Join(m.ran, "|")+")$")
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	// test2json and the test binary share a process group: kill both.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.Output()
	if ctx.Err() != nil {
		m.killers = append(m.killers, "(timeout)")
		return false, nil
	}
	failed := false
	for _, line := range bytes.Split(out, []byte("\n")) {
		var ev struct {
			Action, Test, Output string
			Elapsed              float64 // on the package's last event (-t): its run time
		}
		if json.Unmarshal(line, &ev) != nil {
			continue
		}
		name, _, _ := strings.Cut(ev.Test, "/")
		if name == "" {
			m.elapsed += ev.Elapsed
			continue
		}
		died := ev.Action == "output" && strings.HasPrefix(ev.Output, "panic: ")
		timedOut := died && strings.HasPrefix(ev.Output, "panic: test timed out")
		panicked = panicked || died
		if ev.Action == "fail" || timedOut {
			failed = true
			if !slices.Contains(m.killers, name) {
				m.killers = append(m.killers, name)
			}
		}
		if timedOut || name == ev.Test && (ev.Action == "pass" || ev.Action == "fail" || ev.Action == "skip") {
			m.ran = append(m.ran, name)
		}
	}
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		return false, err
	} else if exited && !failed {
		m.killers = append(m.killers, "(package)")
	}
	return panicked, nil
}

func score(file string, ms []*mutant) string {
	var killed, valid int
	for _, m := range ms {
		if !m.invalid {
			valid++
			if len(m.killers) > 0 {
				killed++
			}
		}
	}
	return fmt.Sprintf("%s: %d/%d killed (%.1f %%), %d invalid", file, killed, valid, 100*float64(killed)/float64(max(valid, 1)), len(ms)-valid)
}

// annotate updates the entries of the mutated files from this run: a
// survivor is added or keeps its note, a listed mutant now killed names
// a killer, and an entry whose mutant is gone goes. It returns the
// survivors with no equivalence note.
func annotate(notes map[string]string, files []string, ms []*mutant) (open []string) {
	seen := map[string]bool{}
	for _, m := range ms {
		seen[m.key] = true
		note, listed := notes[m.key]
		switch {
		case m.invalid:
		case len(m.killers) == 0:
			notes[m.key] = note
			if !strings.HasPrefix(note, "equivalent: ") {
				open = append(open, m.key)
			}
		case listed && !slices.Contains(m.killers, strings.TrimPrefix(note, "killed: ")):
			notes[m.key] = "killed: " + m.killers[0]
		}
	}
	for k := range notes {
		if file, _, _ := strings.Cut(k, ":"); slices.Contains(files, file) && !seen[k] {
			delete(notes, k)
		}
	}
	return open
}

// render prints the entries sorted by file, line, column and mutation.
func render(notes map[string]string) string {
	var keys []string
	for k := range notes {
		keys = append(keys, k)
	}
	pad := func(k string) string { // right-aligned numbers sort as numbers
		p := strings.FieldsFunc(k, func(r rune) bool { return r == ':' || r == ' ' })
		return fmt.Sprintf("%s %6s %4s %s", p[0], p[1], p[2], p[3])
	}
	slices.SortFunc(keys, func(a, b string) int { return strings.Compare(pad(a), pad(b)) })
	b := "# Mutants that survived a run of `go run ./scripts/mutate`: each is killed\n# by the test named or equivalent to the original, for the reason given.\n"
	for _, k := range keys {
		b += strings.TrimSuffix(k+"\t"+notes[k], "\t") + "\n"
	}
	return b
}
