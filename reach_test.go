package sassi_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedList names the exported internal functions and methods that no
// product root reaches, each with the test that needs it.
const unreachedList = "testdata/unreached.txt"

// stdlibCalled are method names that the standard library calls through
// its interfaces (fmt.Stringer, error, errors.Is/As, json.Marshaler,
// http.Handler, io.Reader/Writer, sort.Interface), so a method with one of
// them counts as reached without a caller in the module.
var stdlibCalled = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "ServeHTTP": true, "Read": true, "Write": true,
	"Len": true, "Less": true, "Swap": true, "Is": true, "As": true,
}

// TestReachability fails when an exported function or method of non-test
// internal/ code is reached from no product root and is not named in
// testdata/unreached.txt, and when an entry there is reached or gone, so
// the list can only shrink.
//
// Roots are every function in the non-test files of cmd/, examples/,
// bench/ and the root package, every init function and package-level
// initializer, and the exported methods of every root-package alias's
// type (type Context = cuda.Context). Reach follows names, not types: in a
// reached body, pkg.F reaches that package's F, a bare F its own
// package's F, and x.M every method named M (only in its own package when
// M is unexported), so a call through an interface reaches every method
// of that name. Names are enough because a deleted function that was
// reached fails the build, and one that was not is what this test looks
// for.
func TestReachability(t *testing.T) {
	m := loadModule(t, ".")
	unreached := m.unreached()

	listed, err := readUnreached(unreachedList)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range unreached {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := listed[k]; !ok {
			d := unreached[k]
			t.Errorf("%s: %s is reached from no cmd/, examples/, bench/ or root-package code: delete it, or list it in %s with the test that needs it",
				m.fset.Position(d.fn.Pos()), k, unreachedList)
		}
	}
	for k, line := range listed {
		if _, ok := unreached[k]; ok {
			continue
		}
		if _, ok := m.byKey[k]; ok {
			t.Errorf("%s:%d: %s is reached now: take it off the list", unreachedList, line, k)
		} else {
			t.Errorf("%s:%d: %s is gone: take it off the list", unreachedList, line, k)
		}
	}
}

// funcDecl is one top-level function or method of the module.
type funcDecl struct {
	key     string // "internal/sim.NewDevice", "internal/sim.Thread.Reg"
	pkg     string // directory relative to the module root, "." for the root
	fn      *ast.FuncDecl
	imports map[string]string // file's import names -> directories
}

type module struct {
	fset  *token.FileSet
	byKey map[string]*funcDecl
	funcs map[string]map[string]*funcDecl // pkg -> function name
	// methods holds every method by name.
	methods map[string][]*funcDecl
	roots   []rootNode
	// aliased holds the exported method sets of the root aliases.
	aliased []*funcDecl
}

// rootNode is code to walk: a function body or a package-level
// initializer.
type rootNode struct {
	node    ast.Node
	pkg     string
	imports map[string]string
}

// loadModule parses every non-test Go file under dir. The module path in
// dir/go.mod maps import paths to directories; bench/, its own module
// under the same prefix, is read as files like the rest.
func loadModule(t *testing.T, dir string) *module {
	t.Helper()
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	m := &module{
		fset:    token.NewFileSet(),
		byKey:   map[string]*funcDecl{},
		funcs:   map[string]map[string]*funcDecl{},
		methods: map[string][]*funcDecl{},
	}
	var aliases []rootNode
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(dir, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, s := range f.Imports {
			ip, _ := strconv.Unquote(s.Path.Value)
			if ip != modPath && !strings.HasPrefix(ip, modPath+"/") {
				continue
			}
			local := strings.TrimPrefix(strings.TrimPrefix(ip, modPath), "/")
			if local == "" {
				local = "."
			}
			n := path.Base(ip)
			if s.Name != nil {
				n = s.Name.Name
			}
			imports[n] = local
		}
		isRoot := !strings.HasPrefix(pkg, "internal/")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				m.addFunc(pkg, decl, imports)
				if (isRoot || decl.Recv == nil && decl.Name.Name == "init") && decl.Body != nil {
					m.roots = append(m.roots, rootNode{decl.Body, pkg, imports})
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, v := range spec.Values {
							m.roots = append(m.roots, rootNode{v, pkg, imports})
						}
					case *ast.TypeSpec:
						if pkg == "." && spec.Assign.IsValid() {
							aliases = append(aliases, rootNode{spec, pkg, imports})
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range aliases {
		p, typ := typeName(a.node.(*ast.TypeSpec).Type, a.pkg, a.imports)
		for k, d := range m.byKey {
			if strings.HasPrefix(k, p+"."+typ+".") && ast.IsExported(d.fn.Name.Name) {
				m.aliased = append(m.aliased, d)
			}
		}
	}
	return m
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (m *module) addFunc(pkg string, fn *ast.FuncDecl, imports map[string]string) {
	d := &funcDecl{pkg: pkg, fn: fn, imports: imports}
	name := fn.Name.Name
	if fn.Recv == nil {
		d.key = pkg + "." + name
		if m.funcs[pkg] == nil {
			m.funcs[pkg] = map[string]*funcDecl{}
		}
		m.funcs[pkg][name] = d
	} else {
		_, typ := typeName(fn.Recv.List[0].Type, pkg, nil)
		d.key = pkg + "." + typ + "." + name
		m.methods[name] = append(m.methods[name], d)
	}
	m.byKey[d.key] = d
}

// typeName resolves a (possibly pointer, generic or qualified) type
// expression to its package directory and type name; both are "" when the
// type is not a named type of the module.
func typeName(e ast.Expr, pkg string, imports map[string]string) (p, typ string) {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return pkg, x.Name
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if dir, ok := imports[id.Name]; ok {
					return dir, x.Sel.Name
				}
			}
			return "", ""
		default:
			return "", ""
		}
	}
}

// unreached walks the roots and returns the exported functions and
// methods of internal/ that no walk reached, by key.
func (m *module) unreached() map[string]*funcDecl {
	reached := map[*funcDecl]bool{}
	var work []rootNode
	reach := func(d *funcDecl) {
		if d != nil && !reached[d] {
			reached[d] = true
			if d.fn.Body != nil {
				work = append(work, rootNode{d.fn.Body, d.pkg, d.imports})
			}
		}
	}
	for name, ds := range m.methods {
		if stdlibCalled[name] {
			for _, d := range ds {
				reach(d)
			}
		}
	}
	for _, d := range m.aliased {
		reach(d)
	}
	work = append(work, m.roots...)
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if dir, ok := r.imports[id.Name]; ok {
						reach(m.funcs[dir][n.Sel.Name])
						return false
					}
				}
				sel := n.Sel.Name
				for _, d := range m.methods[sel] {
					if ast.IsExported(sel) || d.pkg == r.pkg {
						reach(d)
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				reach(m.funcs[r.pkg][n.Name])
			}
			return true
		}
		ast.Inspect(r.node, visit)
	}
	out := map[string]*funcDecl{}
	for k, d := range m.byKey {
		if !reached[d] && ast.IsExported(d.fn.Name.Name) && strings.HasPrefix(d.pkg, "internal/") {
			out[k] = d
		}
	}
	return out
}

// testName matches the test, fuzz target or benchmark an entry's reason
// must name.
var testName = regexp.MustCompile(`\b(Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*`)

// readUnreached reads the list: one key per line, then the reason, which
// names the test that needs the entry. Blank lines and #-comments are
// skipped. It returns each key's line number.
func readUnreached(name string) (map[string]int, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]int{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		if !testName.MatchString(reason) {
			return nil, fmt.Errorf("%s:%d: %s: the reason must name the test that needs it", name, line, key)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", name, line, key)
		}
		out[key] = line
	}
	return out, sc.Err()
}
