package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathConfig scopes the kernel allocation-discipline contract.
type HotPathConfig struct {
	Packages []string
}

// DefaultHotPathConfig covers the relation kernels and the packed-key
// package — the layers whose 8000×-allocation win (PR 1) depends on
// uint64 packed keys instead of string-keyed state.
func DefaultHotPathConfig() HotPathConfig {
	return HotPathConfig{Packages: []string{
		"repro/internal/relation",
		"repro/internal/keys",
	}}
}

// NewHotPath builds the hotpath analyzer: no string-keyed map state
// and no string-concatenation keys inside kernel function bodies. Every
// kernel lookup, at any key width, goes through keys.Hash and a
// keys.Table, so string-keyed state has no sanctioned use left; an
// exception would need //faqlint:allow hotpath(reason) at the site it
// costs at. This pins the kernels' allocation discipline against
// regression.
func NewHotPath(cfg HotPathConfig) *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "no string-keyed maps or string-concatenation keys in kernel functions",
	}
	a.Run = func(pass *Pass) error {
		if !matchPackage(cfg.Packages, pass.Pkg.ImportPath) {
			return nil
		}
		for i, f := range pass.Pkg.Files {
			if pass.Pkg.IsTestFile(i) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkHotPath(pass, fd)
			}
		}
		return nil
	}
	return a
}

func checkHotPath(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.MapType:
			if isStringType(pass.Pkg.Info.TypeOf(n.Key)) {
				pass.Reportf(n.Pos(),
					"string-keyed map state in a kernel function: key the columns with keys.Hash and a keys.Table (internal/keys) or annotate with //faqlint:allow hotpath(reason)")
			}
		case *ast.IndexExpr:
			// String concatenation building a map key at the index
			// site: allocates a fresh key string per probe.
			if _, isMap := underlyingMap(pass.Pkg.Info.TypeOf(n.X)); !isMap {
				return true
			}
			if bin, ok := n.Index.(*ast.BinaryExpr); ok && bin.Op == token.ADD &&
				isStringType(pass.Pkg.Info.TypeOf(bin)) {
				pass.Reportf(bin.Pos(),
					"string-concatenation map key on a kernel path: key the columns with keys.Hash and a keys.Table (internal/keys) or annotate with //faqlint:allow hotpath(reason)")
			}
		}
		return true
	})
}

func underlyingMap(t types.Type) (*types.Map, bool) {
	if t == nil {
		return nil, false
	}
	m, ok := t.Underlying().(*types.Map)
	return m, ok
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
