package simref

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportedByOracleOnly keeps the reference interpreter out of every
// product binary: no non-test package of the module but internal/difftest
// (the oracle, linked by cmd/sassi-difftest alone) may import it. Tests may.
func TestImportedByOracleOnly(t *testing.T) {
	const self = "sassi/internal/sim/simref"
	root := filepath.Join("..", "..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // bench is its own module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self && filepath.ToSlash(dir) != "internal/difftest" {
				t.Errorf("%s imports %s; only internal/difftest and tests may", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
