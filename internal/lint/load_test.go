package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

// TestLoaderSkipsRecompiledVariants builds a module in which package a
// has in-package tests and an external a_test importing b, which
// imports a: `go list -deps -test` then also emits b recompiled
// against a's test build, "repro/internal/b [repro/internal/a.test]".
// That variant holds b's own files, so the loader must analyze b once,
// and b's pragma must not read as unused on the second pass.
func TestLoaderSkipsRecompiledVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("go list -export over a scratch module skipped in -short mode")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":                   "module repro\n\ngo 1.22\n",
		"internal/a/a.go":          "package a\n\nfunc A() int { return 1 }\n",
		"internal/a/a_test.go":     "package a\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) { _ = A() }\n",
		"internal/a/a_ext_test.go": "package a_test\n\nimport (\n\t\"testing\"\n\n\t\"repro/internal/b\"\n)\n\nfunc TestB(t *testing.T) { _ = b.B() }\n",
		"internal/b/b.go": `package b

import "repro/internal/a"

// B panics on an impossible state.
func B() int {
	if a.A() < 0 {
		//faqlint:allow nopanic(fixture: a pragma the analyzer consumes exactly once)
		panic("negative")
	}
	return a.A()
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pkgs, err := lint.NewLoader(dir).Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, p := range pkgs {
		seen[p.ImportPath+" "+p.Name]++
	}
	for _, want := range []string{"repro/internal/a a", "repro/internal/a_test a_test", "repro/internal/b b"} {
		if seen[want] != 1 {
			t.Errorf("package %q analyzed %d times, want once (loaded: %v)", want, seen[want], seen)
		}
	}

	diags, err := lint.NewRunner(lint.NewLoader(dir)).Run([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}
