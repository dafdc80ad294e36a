package sassi_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// unreachedList names the internal functions, methods and fields that the
// reachability rules below would refuse, each with the test that needs it.
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

// TestReachability fails on internal/ code that only tests need and that
// testdata/unreached.txt does not list, and on an entry there that is no
// longer such code or is gone, so the list can only shrink. Three rules,
// each over the non-test files of the module (bench/ included), type
// checked once:
//
//   - A function or method of internal/, exported or not, that no product
//     root reaches. Roots are every function of cmd/, examples/, bench/ and
//     the root package, every init function and package-level initializer,
//     the exported methods of every root-package alias's type
//     (type Context = cuda.Context), every method the standard library
//     calls by name (stdlibCalled) and every listed entry. A call through
//     an interface or a type parameter reaches every method of its name.
//   - A field of an internal/ struct that no code reads. A field with a
//     json: tag counts as read; a field used through its methods (a mutex,
//     an atomic) is read by the selector that names it. Printing a whole
//     struct with fmt's %v reads its fields by reflection, which the rule
//     does not see.
//   - An exported field of an internal/ struct that no code writes. Writes
//     are assignment, ++ and --, a composite-literal key or position, a
//     taken address (which also counts as a read) and x.F[i] = v.
func TestReachability(t *testing.T) {
	listed, err := readUnreached(unreachedList)
	if err != nil {
		t.Fatal(err)
	}
	m := loadModule(t, ".")
	found := m.findings(listed)
	for _, k := range sortedKeys(found) {
		if _, ok := listed[k]; !ok {
			f := found[k]
			t.Errorf("%s: %s %s: delete it, or list it in %s with the test that needs it",
				m.fset.Position(f.pos), k, f.what, unreachedList)
		}
	}
	for _, k := range sortedKeys(listed) {
		if _, ok := found[k]; ok {
			continue
		}
		if m.declared[k] {
			t.Errorf("%s:%d: %s is used by product code now: take it off the list", unreachedList, listed[k], k)
		} else {
			t.Errorf("%s:%d: %s is gone: take it off the list", unreachedList, listed[k], k)
		}
	}
}

// TestReachabilityFixture holds each rule to a small module,
// testdata/reach, whose findings are known: one case per rule, and one per
// kind of use that must not be a finding.
func TestReachabilityFixture(t *testing.T) {
	dir := filepath.Join("testdata", "reach")
	listed, err := readUnreached(filepath.Join(dir, "unreached.txt"))
	if err != nil {
		t.Fatal(err)
	}
	m := loadModule(t, dir)
	found := m.findings(listed)
	for k := range listed {
		if _, ok := found[k]; !ok {
			t.Errorf("listed %s is not a finding", k)
		}
		delete(found, k)
	}
	var got []string
	for _, k := range sortedKeys(found) {
		got = append(got, k+" "+found[k].what)
	}
	want := []string{
		"internal/lib.Knobs.OnlyTests is written by no non-test code",
		"internal/lib.Knobs.Unread is read by no non-test code",
		"internal/lib.State.count is read by no non-test code",
		"internal/lib.State.trail is read by no non-test code",
		"internal/lib.Walker.probe is reached from no product root",
		"internal/lib.helper is reached from no product root",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// finding is one function or field a rule refuses.
type finding struct {
	pos  token.Pos
	what string
}

// pkg is one type-checked package of the module.
type pkg struct {
	dir   string // relative to the module root, "." for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module is the type-checked non-test code of a module.
type module struct {
	fset    *token.FileSet
	modPath string
	pkgs    map[string]*pkg // by directory
	order   []*pkg          // in the order they were checked
	std     types.Importer
	// declared holds the key of every function and field the rules judge.
	declared map[string]bool
}

// loadModule parses every non-test Go file under dir and type-checks it
// package by package. The module path in dir/go.mod maps import paths to
// directories; bench/, its own module under the same prefix, is read as
// files like the rest. Standard-library imports are read from the
// compiler's export data.
func loadModule(t *testing.T, dir string) *module {
	t.Helper()
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	m := &module{
		fset:     token.NewFileSet(),
		modPath:  modPath,
		pkgs:     map[string]*pkg{},
		declared: map[string]bool{},
	}
	m.std = importer.Default()
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
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if m.pkgs[rel] == nil {
			m.pkgs[rel] = &pkg{dir: rel}
		}
		m.pkgs[rel].files = append(m.pkgs[rel].files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range sortedKeys(m.pkgs) {
		if _, err := m.check(dir); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import resolves the module's own import paths to its packages and the
// rest to the standard library.
func (m *module) Import(path string) (*types.Package, error) {
	if path != m.modPath && !strings.HasPrefix(path, m.modPath+"/") {
		return m.std.Import(path)
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, m.modPath), "/")
	if dir == "" {
		dir = "."
	}
	return m.check(dir)
}

func (m *module) check(dir string) (*types.Package, error) {
	p := m.pkgs[dir]
	if p == nil {
		return nil, fmt.Errorf("no package in %s", dir)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	path := m.modPath
	if dir != "." {
		path += "/" + dir
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	m.order = append(m.order, p)
	return tp, nil
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

// key names a function, method or field as the list does:
// "internal/sim.NewDevice", "internal/sim.Thread.Reg",
// "internal/ptxas.Options.Schedule". It is "" for what lies outside the
// module or has no such name.
func (m *module) key(obj types.Object, typeName string) string {
	if obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if path != m.modPath && !strings.HasPrefix(path, m.modPath+"/") {
		return ""
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, m.modPath), "/")
	if dir == "" {
		dir = "."
	}
	if typeName != "" {
		return dir + "." + typeName + "." + obj.Name()
	}
	return dir + "." + obj.Name()
}

// recvName is the name of a method's receiver type.
func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func internal(dir string) bool { return strings.HasPrefix(dir, "internal/") }

// findings applies the three rules and returns what they refuse, by key.
// The listed keys are roots of the function walk.
func (m *module) findings(listed map[string]int) map[string]finding {
	out := map[string]finding{}
	for k, f := range m.unreachedFuncs(listed) {
		out[k] = f
	}
	for k, f := range m.unusedFields() {
		out[k] = f
	}
	return out
}

// unreachedFuncs walks the call graph from the product roots and returns
// the functions and methods of internal/ that it did not reach. A second
// walk from the listed entries keeps what they reach: only the entries
// themselves are returned.
func (m *module) unreachedFuncs(listed map[string]int) map[string]finding {
	type decl struct {
		key  string
		body *ast.BlockStmt
		p    *pkg
	}
	decls := map[*types.Func]*decl{}
	byName := map[string][]*types.Func{} // methods by name
	// reached is 1 for a function the product roots reach, 2 for one only
	// the listed entries do.
	reached := map[*types.Func]int{}
	phase := 1
	type work struct {
		node ast.Node
		p    *pkg
	}
	var queue []work
	reach := func(fn *types.Func) {
		d := decls[fn]
		if d == nil || reached[fn] != 0 {
			return
		}
		reached[fn] = phase
		if d.body != nil {
			queue = append(queue, work{d.body, d.p})
		}
	}
	walk := func() {
		for len(queue) > 0 {
			w := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(w.node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := w.p.info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				fn = fn.Origin()
				recv := fn.Type().(*types.Signature).Recv()
				if recv == nil || !types.IsInterface(recv.Type()) {
					reach(fn)
					return true
				}
				// A call through an interface or a type parameter.
				for _, c := range byName[fn.Name()] {
					if fn.Exported() || c.Pkg() == fn.Pkg() {
						reach(c)
					}
				}
				return true
			})
		}
	}
	for _, p := range m.order {
		for _, f := range p.files {
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[dl.Name].(*types.Func)
					d := &decl{body: dl.Body, p: p}
					decls[fn] = d
					if dl.Recv != nil {
						d.key = m.key(fn, recvName(fn))
						byName[fn.Name()] = append(byName[fn.Name()], fn)
					} else if dl.Name.Name != "init" && dl.Name.Name != "_" {
						d.key = m.key(fn, "")
					}
					if internal(p.dir) && d.key != "" {
						m.declared[d.key] = true
					}
				case *ast.GenDecl:
					for _, spec := range dl.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, v := range vs.Values {
								queue = append(queue, work{v, p})
							}
						}
					}
				}
			}
		}
	}
	for fn, d := range decls {
		isMethod := fn.Type().(*types.Signature).Recv() != nil
		if !internal(d.p.dir) || d.key == "" || isMethod && stdlibCalled[fn.Name()] {
			reach(fn)
		}
	}
	root := m.pkgs["."]
	for _, f := range root.files {
		for _, dl := range f.Decls {
			g, ok := dl.(*ast.GenDecl)
			if !ok || g.Tok != token.TYPE {
				continue
			}
			for _, spec := range g.Specs {
				ts := spec.(*ast.TypeSpec)
				if !ts.Assign.IsValid() {
					continue
				}
				mset := types.NewMethodSet(types.NewPointer(types.Unalias(root.info.Defs[ts.Name].Type())))
				for i := range mset.Len() {
					if fn := mset.At(i).Obj().(*types.Func); fn.Exported() {
						reach(fn.Origin())
					}
				}
			}
		}
	}
	walk()
	phase = 2
	for fn, d := range decls {
		if _, ok := listed[d.key]; ok {
			reach(fn)
		}
	}
	walk()
	out := map[string]finding{}
	for fn, d := range decls {
		if !internal(d.p.dir) || d.key == "" || reached[fn] == 1 {
			continue
		}
		if _, ok := listed[d.key]; ok || reached[fn] == 0 {
			out[d.key] = finding{fn.Pos(), "is reached from no product root"}
		}
	}
	return out
}

// fieldUse records how non-test code uses one field.
type fieldUse struct {
	key           string
	pos           token.Pos
	read, written bool
}

// unusedFields returns the fields of internal/ structs that no code reads
// and the exported ones that no code writes.
func (m *module) unusedFields() map[string]finding {
	fields := map[*types.Var]*fieldUse{}
	for _, p := range m.order {
		if !internal(p.dir) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				f := st.Field(i)
				if f.Name() == "_" {
					continue // padding
				}
				u := &fieldUse{key: m.key(f, tn.Name()), pos: f.Pos()}
				_, u.read = reflect.StructTag(st.Tag(i)).Lookup("json")
				fields[f] = u
				m.declared[u.key] = true
			}
		}
	}
	use := func(f *types.Var, read bool) {
		if u := fields[f.Origin()]; u != nil {
			if read {
				u.read = true
			} else {
				u.written = true
			}
		}
	}
	for _, p := range m.order {
		fu := &fieldWalk{info: p.info, use: use}
		for _, f := range p.files {
			ast.Inspect(f, fu.visit)
		}
	}
	out := map[string]finding{}
	for f, u := range fields {
		switch {
		case !u.read:
			out[u.key] = finding{u.pos, "is read by no non-test code"}
		case !u.written && f.Exported():
			out[u.key] = finding{u.pos, "is written by no non-test code"}
		}
	}
	return out
}

// fieldWalk classifies every field selector of a package's files as a
// read or a write.
type fieldWalk struct {
	info *types.Info
	use  func(f *types.Var, read bool)
}

func (w *fieldWalk) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, e := range n.Lhs {
			w.write(e)
		}
		for _, e := range n.Rhs {
			ast.Inspect(e, w.visit)
		}
		return false
	case *ast.IncDecStmt:
		w.write(n.X)
		return false
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil {
					w.write(e)
				}
			}
		}
		ast.Inspect(n.X, w.visit)
		ast.Inspect(n.Body, w.visit)
		return false
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.write(n.X)
		}
	case *ast.CompositeLit:
		w.literal(n)
		return false
	case *ast.SelectorExpr:
		if f := w.field(n); f != nil {
			w.use(f, true)
		}
	}
	return true
}

// field returns the field a selector names, after recording the embedded
// fields it passes through as reads.
func (w *fieldWalk) field(sel *ast.SelectorExpr) *types.Var {
	s := w.info.Selections[sel]
	if s == nil {
		return nil
	}
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st := structOf(t)
		if st == nil {
			return nil
		}
		f := st.Field(i)
		w.use(f, true)
		t = f.Type()
	}
	if s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var)
}

// write records the target of an assignment: a field selector is written,
// and so is a struct-valued field it is selected from, or a field indexed
// into; what the target is computed from is read.
func (w *fieldWalk) write(e ast.Expr) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		w.write(e.X)
	case *ast.SelectorExpr:
		f := w.field(e)
		if f == nil {
			ast.Inspect(e.X, w.visit)
			return
		}
		w.use(f, false)
		if _, ok := w.info.TypeOf(e.X).Underlying().(*types.Struct); ok {
			w.write(e.X)
		} else {
			ast.Inspect(e.X, w.visit)
		}
	case *ast.IndexExpr:
		w.write(e.X)
		ast.Inspect(e.Index, w.visit)
	default:
		ast.Inspect(e, w.visit)
	}
}

// literal records the fields a composite literal sets, by key or by
// position, as written.
func (w *fieldWalk) literal(lit *ast.CompositeLit) {
	st := structOf(w.info.TypeOf(lit))
	for i, e := range lit.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		switch {
		case st != nil && ok:
			if f, ok := w.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
				w.use(f, false)
			}
			e = kv.Value
		case st != nil:
			w.use(st.Field(i), false)
		case ok:
			ast.Inspect(kv.Key, w.visit)
			e = kv.Value
		}
		ast.Inspect(e, w.visit)
	}
}

// structOf is the struct a (pointer to a) struct type is, or nil.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
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
