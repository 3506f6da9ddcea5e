package rota

// Source guards: the library under internal/ and cmd/, and the facade in
// rota.go, declare only what a binary, an example or the README reaches;
// and the prose docs name only declarations, files and commands that
// exist. Both read the tree with the standard library alone (go/parser,
// go/types, go/importer), so they run with the rest of the root
// package's tests and need no network.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// goFile is one parsed .go file of the tree.
type goFile struct {
	path string // slash-separated, relative to the tree's root
	test bool
	ast  *ast.File
}

// parseTree parses every .go file under root (nested modules such as
// benchmark/ included), skipping hidden and testdata directories below
// it. Positions print relative to root.
func parseTree(root string) (*token.FileSet, []goFile, error) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(root, func(full string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if full != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, full)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(full)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, filepath.ToSlash(rel), src, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			path: filepath.ToSlash(rel),
			test: strings.HasSuffix(name, "_test.go"),
			ast:  f,
		})
		return nil
	})
	return fset, files, err
}

// keptLine reports whether a doc comment carries a "Kept: <user>" line.
func keptLine(groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, line := range strings.Split(g.Text(), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "Kept:") {
				return true
			}
		}
	}
	return false
}

// importPath returns the import path of the package in dir (relative to
// root, slash-separated): the module path of the nearest go.mod at or
// above dir, joined with dir's path below it.
func importPath(root, dir string) (string, error) {
	for mod := dir; ; mod = path.Dir(mod) {
		body, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(mod), "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(body), "\n") {
				if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					rel := strings.TrimPrefix(strings.TrimPrefix(dir, mod), "/")
					return path.Join(strings.TrimSpace(p), rel), nil
				}
			}
		}
		if mod == "." {
			return "", fmt.Errorf("%s: no go.mod at or above it", dir)
		}
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// methodKey is a method's name and signature as the interface match
// compares them: parameter and result types only, package qualifiers
// dropped and interface{} spelled any, so a type-checked method and one
// read from source with go/parser render alike.
func methodKey(name string, params, results []string) string {
	key := name + "(" + strings.Join(params, ", ") + ") (" + strings.Join(results, ", ") + ")"
	return strings.ReplaceAll(key, "interface{}", "any")
}

// typesMethodKey is methodKey of a type-checked method.
func typesMethodKey(name string, sig *types.Signature) string {
	unqualified := func(*types.Package) string { return "" }
	list := func(t *types.Tuple, variadic bool) []string {
		out := make([]string, t.Len())
		for i := range out {
			ty := t.At(i).Type()
			if variadic && i == t.Len()-1 {
				out[i] = "..." + types.TypeString(ty.(*types.Slice).Elem(), unqualified)
				continue
			}
			out[i] = types.TypeString(ty, unqualified)
		}
		return out
	}
	return methodKey(name, list(sig.Params(), sig.Variadic()), list(sig.Results(), false))
}

// qualifier matches a package qualifier in a written type.
var qualifier = regexp.MustCompile(`\b\w+\.`)

// astMethodKey is methodKey of a method written in source.
func astMethodKey(name string, ft *ast.FuncType) string {
	list := func(fl *ast.FieldList) []string {
		var out []string
		if fl == nil {
			return out
		}
		for _, f := range fl.List {
			text := qualifier.ReplaceAllString(types.ExprString(f.Type), "")
			for range max(1, len(f.Names)) {
				out = append(out, text)
			}
		}
		return out
	}
	return methodKey(name, list(ft.Params), list(ft.Results))
}

// interfaceMethods adds the methodKey of every method an interface type
// written in f declares to keys, from its type-checked form when info
// has one.
func interfaceMethods(f *ast.File, info *types.Info, keys map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		it, ok := n.(*ast.InterfaceType)
		if !ok {
			return true
		}
		if tv, ok := info.Types[it]; ok {
			t := tv.Type.Underlying().(*types.Interface)
			for i := 0; i < t.NumExplicitMethods(); i++ {
				m := t.ExplicitMethod(i)
				keys[typesMethodKey(m.Name(), m.Type().(*types.Signature))] = true
			}
			return true
		}
		for _, m := range it.Methods.List {
			for _, id := range m.Names {
				keys[astMethodKey(id.Name, m.Type.(*ast.FuncType))] = true
			}
		}
		return true
	})
}

// stdInterfaceMethods adds to keys the methodKey of every method an
// interface type declares in the sources of the standard packages
// imports and of every standard package they import in turn. An
// embedded interface adds its methods where it is declared, which is in
// this closure too.
func stdInterfaceMethods(imports []string, keys map[string]bool) error {
	fset := token.NewFileSet()
	seen := map[string]bool{"C": true, "unsafe": true}
	for len(imports) > 0 {
		ip := imports[len(imports)-1]
		imports = imports[:len(imports)-1]
		if seen[ip] {
			continue
		}
		seen[ip] = true
		dir := ip
		if first, _, _ := strings.Cut(ip, "/"); strings.Contains(first, ".") {
			dir = "vendor/" + ip // golang.org/x code the standard library vendors
		}
		bp, err := build.Import(dir, "", 0)
		if err != nil {
			return err
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			interfaceMethods(f, &types.Info{}, keys)
		}
		imports = append(imports, bp.Imports...)
	}
	return nil
}

// reachNode is one declaration the reachability walk can reach.
type reachNode struct {
	name   string   // Type.Method for a method
	decl   ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	root   bool
	report bool // unreached, it is a failure
}

// unreached type-checks every non-test package of every module under
// root, then walks out from the roots along what each reached
// declaration's source uses. It returns "file:line: name" for every
// func, method and type in a non-test file under internal/ or cmd/, and
// every declaration of the package at root (the facade), that the walk
// does not reach.
//
// The roots are every main and init, every package-level var (its
// initializer runs), every Example function, every declaration whose
// doc comment has a "Kept:" line, and every facade declaration that
// root/README.md spells pkg.Name. The facade's own vars are roots only
// when named. A method is reached when a reached body selects it, or
// when its receiver type is reached and error, an interface type of the
// tree, or one of a standard package it imports, declares a method of
// its name and signature (methodKey).
func unreached(root string) ([]string, error) {
	fset, files, err := parseTree(root)
	if err != nil {
		return nil, err
	}

	// Non-test files by import path; external test files, where the
	// examples live, by directory.
	type pkg struct {
		files []*ast.File
		types *types.Package
	}
	pkgs := map[string]*pkg{}
	xtests := map[string][]*ast.File{}
	var paths []string
	for _, f := range files {
		dir := path.Dir(f.path)
		if f.test {
			if strings.HasSuffix(f.ast.Name.Name, "_test") {
				xtests[dir] = append(xtests[dir], f.ast)
			}
			continue
		}
		ip, err := importPath(root, dir)
		if err != nil {
			return nil, err
		}
		if pkgs[ip] == nil {
			pkgs[ip] = &pkg{}
			paths = append(paths, ip)
		}
		pkgs[ip].files = append(pkgs[ip].files, f.ast)
	}

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	std := importer.Default()
	var imp importerFunc
	conf := types.Config{Importer: &imp}
	imp = func(ip string) (*types.Package, error) {
		p := pkgs[ip]
		if p == nil {
			return std.Import(ip)
		}
		if p.types == nil {
			var err error
			if p.types, err = conf.Check(ip, fset, p.files, info); err != nil {
				return nil, err
			}
		}
		return p.types, nil
	}
	for _, ip := range paths {
		if _, err := imp(ip); err != nil {
			return nil, err
		}
	}
	// An external test package may use seams that its package's test
	// files export, and those are not loaded: its type errors are
	// ignored, and only its Example functions count.
	lenient := types.Config{Importer: &imp, Error: func(error) {}}
	for dir, xs := range xtests {
		lenient.Check(dir+"_test", fset, xs, info)
	}

	// The facade is the package at root; README.md's pkg.Name spans
	// name the part of it that is kept.
	facade, named := "", map[string]bool{}
	if ip, err := importPath(root, "."); err == nil && pkgs[ip] != nil {
		facade = pkgs[ip].types.Name()
		if readme, err := os.ReadFile(filepath.Join(root, "README.md")); err == nil {
			re := regexp.MustCompile(`\b` + facade + `\.([A-Za-z_]\w*)`)
			for _, m := range re.FindAllStringSubmatch(string(readme), -1) {
				named[m[1]] = true
			}
		}
	}

	// The declarations, and each named type's methods.
	nodes := map[types.Object]*reachNode{}
	methods := map[types.Object][]types.Object{}
	for _, f := range files {
		atRoot := !f.test && path.Dir(f.path) == "." && f.ast.Name.Name == facade
		inScope := !f.test && (atRoot || strings.HasPrefix(f.path, "internal/") || strings.HasPrefix(f.path, "cmd/"))
		add := func(id *ast.Ident, decl ast.Node, root bool) *reachNode {
			obj := info.Defs[id]
			if obj == nil {
				return nil
			}
			n := &reachNode{name: id.Name, decl: decl, report: inScope, root: root || atRoot && named[id.Name]}
			nodes[obj] = n
			return n
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				var root bool
				switch {
				case f.test:
					root = d.Recv == nil && strings.HasPrefix(name, "Example")
				case d.Recv == nil:
					root = name == "init" || name == "main" && f.ast.Name.Name == "main" || keptLine(d.Doc)
				default:
					root = keptLine(d.Doc)
				}
				n := add(d.Name, d, root)
				if n == nil || d.Recv == nil {
					continue
				}
				recv := info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				if t, ok := recv.(*types.Named); ok {
					tn := t.Origin().Obj()
					methods[tn] = append(methods[tn], info.Defs[d.Name])
					n.name = tn.Name() + "." + name
				}
			case *ast.GenDecl:
				if f.test {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, keptLine(d.Doc, s.Doc))
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if n := add(id, s, keptLine(d.Doc, s.Doc) || !atRoot && d.Tok == token.VAR); n != nil {
								n.report = atRoot
							}
						}
					}
				}
			}
		}
	}

	// The methods some interface type declares, by name and signature:
	// the universe's error, or one in the tree or in a standard package
	// it imports, directly or not. The standard library calls methods
	// through interfaces of its own (errors.Is through an unnamed
	// interface{ Is(error) bool }, encoding/json through
	// encoding.TextMarshaler).
	iface := map[string]bool{}
	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for i := 0; i < errorType.NumMethods(); i++ {
		m := errorType.Method(i)
		iface[typesMethodKey(m.Name(), m.Type().(*types.Signature))] = true
	}
	for _, f := range files {
		if !f.test {
			interfaceMethods(f.ast, info, iface)
		}
	}
	var stdImports []string
	for _, p := range pkgs {
		for _, dep := range p.types.Imports() {
			if pkgs[dep.Path()] == nil {
				stdImports = append(stdImports, dep.Path())
			}
		}
	}
	if err := stdInterfaceMethods(stdImports, iface); err != nil {
		return nil, err
	}

	// The walk.
	reached := map[types.Object]bool{}
	var stack []types.Object
	reach := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if nodes[obj] != nil && !reached[obj] {
			reached[obj] = true
			stack = append(stack, obj)
		}
	}
	for obj, n := range nodes {
		if n.root {
			reach(obj)
		}
	}
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ast.Inspect(nodes[obj].decl, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && info.Uses[id] != nil {
				reach(info.Uses[id])
			}
			return true
		})
		for _, m := range methods[obj] {
			if iface[typesMethodKey(m.Name(), m.Type().(*types.Signature))] {
				reach(m)
			}
		}
	}

	var out []string
	for obj, n := range nodes {
		if n.report && !reached[obj] {
			pos := fset.Position(obj.Pos())
			out = append(out, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, n.name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// TestNoTestOnlyDeclarations fails for each declaration under internal/
// and cmd/, and each facade declaration in rota.go, that no binary, no
// example and no README-named facade entry reaches (see unreached). A
// declaration kept for tests alone says who uses it on a "Kept:" line of
// its doc comment; a test seam belongs in an export_test.go instead.
func TestNoTestOnlyDeclarations(t *testing.T) {
	dead, err := unreached(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s is reached from no binary, example or README facade name: delete it, or say who keeps it on a \"Kept:\" doc line", d)
	}
}

// TestUnreachedFixture runs the walk over testdata/reach, a module with
// one binary and one planted case of each kind: a pair of functions that
// call only each other, a method sharing its name with a used one and a
// method sharing a standard interface method's name but not its
// signature are reported; a method called only through an interface and
// a "Kept:" declaration are not.
func TestUnreachedFixture(t *testing.T) {
	got, err := unreached(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{ // sorted as strings, as unreached returns them
		"internal/lib/lib.go:14: pong",
		"internal/lib/lib.go:25: B.Frob",
		"internal/lib/lib.go:35: C.String",
		"internal/lib/lib.go:7: ping",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("unreached:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// declIndex is what the tree declares, for resolving names in the docs.
type declIndex struct {
	tests   map[string]bool            // Test*, Fuzz*, Benchmark* functions
	pkgs    map[string]map[string]bool // package name -> top-level names
	members map[string]map[string]bool // type name -> methods and fields
}

func buildDeclIndex(files []goFile) declIndex {
	ix := declIndex{tests: map[string]bool{}, pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
	member := func(typ, name string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][name] = true
	}
	for _, f := range files {
		pkg := f.ast.Name.Name
		if f.test {
			pkg = strings.TrimSuffix(pkg, "_test")
		}
		if ix.pkgs[pkg] == nil {
			ix.pkgs[pkg] = map[string]bool{}
		}
		top := ix.pkgs[pkg]
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv == nil {
					top[name] = true
					if f.test {
						ix.tests[name] = true
					}
					continue
				}
				typ := d.Recv.List[0].Type
				if s, ok := typ.(*ast.StarExpr); ok {
					typ = s.X
				}
				switch r := typ.(type) {
				case *ast.IndexExpr:
					typ = r.X
				case *ast.IndexListExpr:
					typ = r.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					member(id.Name, name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							top[n.Name] = true
						}
					case *ast.TypeSpec:
						top[s.Name.Name] = true
						var fields *ast.FieldList
						switch u := s.Type.(type) {
						case *ast.StructType:
							fields = u.Fields
						case *ast.InterfaceType:
							fields = u.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								member(s.Name.Name, n.Name)
							}
							if len(fl.Names) == 0 { // embedded
								e := fl.Type
								if st, ok := e.(*ast.StarExpr); ok {
									e = st.X
								}
								switch x := e.(type) {
								case *ast.Ident:
									member(s.Name.Name, x.Name)
								case *ast.SelectorExpr:
									member(s.Name.Name, x.Sel.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return ix
}

var (
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	testName   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*`)
	dottedName = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+(?:\(.*\))?$`)
	pastTense  = regexp.MustCompile(`(?i)\b(?:deleted|removed|retired)\b`)
	fileName   = regexp.MustCompile(`\.(?:go|md|json|jsonl|golden|sh|mod|txt|csv)$`)
	fileRef    = regexp.MustCompile(`^(?:\./)?([\w.*/-]+\.(?:go|md|json|jsonl|golden|sh|mod|txt|csv))(?::(\d+)(?:[–-](\d+))?)?$`)
	cmdRef     = regexp.MustCompile(`(?:^|[\s(])(?:\./)?cmd/([A-Za-z]\w*)`)
)

// repoFiles indexes every file under the repository root (hidden
// directories skipped, testdata included) by slash path and by base name.
type repoFiles struct {
	paths  map[string]bool
	byBase map[string][]string
}

func indexRepoFiles(t *testing.T) repoFiles {
	t.Helper()
	rf := repoFiles{paths: map[string]bool{}, byBase: map[string][]string{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		rf.paths[p] = true
		rf.byBase[d.Name()] = append(rf.byBase[d.Name()], p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

// resolve returns the files a doc's file reference can mean: the path
// itself from the root, else every file whose path ends in it (a bare
// base name, or a path given from inside a module). A glob matches from
// the root.
func (rf repoFiles) resolve(ref string) []string {
	if strings.Contains(ref, "*") {
		m, _ := filepath.Glob(filepath.FromSlash(ref))
		return m
	}
	if rf.paths[ref] {
		return []string{ref}
	}
	var out []string
	for _, p := range rf.byBase[path.Base(ref)] {
		if strings.HasSuffix(p, "/"+ref) || p == ref {
			out = append(out, p)
		}
	}
	return out
}

// checkFileRef reports what is wrong with a code span naming a repo file
// (path/file.go, file.go:N or file.go:N–M), or "" when nothing is.
func (rf repoFiles) checkFileRef(span string) string {
	m := fileRef.FindStringSubmatch(span)
	if m == nil {
		return ""
	}
	found := rf.resolve(m[1])
	if len(found) == 0 {
		return "names no file of the repository"
	}
	last := m[3]
	if last == "" {
		last = m[2]
	}
	if last == "" {
		return ""
	}
	var n int
	fmt.Sscan(last, &n)
	for _, f := range found {
		body, err := os.ReadFile(f)
		if err == nil && n <= strings.Count(string(body), "\n") {
			return ""
		}
	}
	return fmt.Sprintf("line %d is past the end of %s", n, strings.Join(found, ", "))
}

// cmdFlags is the flags each command under cmd/ registers, by command
// name, read from its fs.Kind("name", …) calls.
type cmdFlags map[string]map[string]bool

func indexCmdFlags(files []goFile) cmdFlags {
	cf := cmdFlags{}
	for _, f := range files {
		dir := path.Dir(f.path)
		if f.test || path.Dir(dir) != "cmd" {
			continue
		}
		name := path.Base(dir)
		if cf[name] == nil {
			cf[name] = map[string]bool{"h": true, "help": true} // the flag package's own
		}
		ast.Inspect(f.ast, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				cf[name][strings.Trim(lit.Value, "`\"")] = true
			}
			return true
		})
	}
	return cf
}

// check reports the flags a code span passes to a command of cmd/
// (`rotaX -name …`, or `go run ./cmd/rotaX -name …`) that the command
// does not register, or "" when there are none. A command's arguments
// run to the next command or shell separator.
func (cf cmdFlags) check(span string) string {
	var cmd string
	var stale []string
	for _, tok := range strings.Fields(span) {
		tok = strings.Trim(tok, "[]")
		if name := strings.TrimPrefix(strings.TrimPrefix(tok, "./"), "cmd/"); cf[name] != nil {
			cmd = name
			continue
		}
		switch {
		case tok == "|" || tok == ";" || tok == "&&" || tok == "&":
			cmd = ""
		case cmd != "" && len(tok) > 1 && tok[0] == '-':
			flag, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
			if flag != "" && unicode.IsLetter(rune(flag[0])) && !cf[cmd][flag] {
				stale = append(stale, cmd+" -"+flag)
			}
		}
	}
	if len(stale) == 0 {
		return ""
	}
	return "passes a flag its command does not register: " + strings.Join(stale, ", ")
}

// resolve reports whether a dotted doc name resolves: pkg.Ident, or
// Type.Member, or pkg.Type.Member. A name whose head is neither a repo
// package nor a repo type (json.Unmarshal, ctx.Err) is not checked.
func (ix declIndex) resolve(parts []string) (checked, ok bool) {
	head, rest := parts[0], parts[1:]
	if top, isPkg := ix.pkgs[head]; isPkg && head != "main" {
		checked = true
		if top[rest[0]] && (len(rest) == 1 || ix.members[rest[0]][rest[1]]) {
			return true, true
		}
	}
	if m, isType := ix.members[head]; isType {
		checked = true
		if m[rest[0]] {
			return true, true
		}
	}
	return checked, false
}

// TestDocsNameRealThings resolves the declarations README.md, DESIGN.md
// and EXPERIMENTS.md name in code spans outside fenced blocks: every
// TestX, FuzzX and BenchmarkX, every pkg.Ident whose pkg is a repo
// package, every Type.Member whose Type is a repo type, and every flag
// a span passes to a command of cmd/. A line that calls the name
// deleted, removed or retired is history and is skipped.
func TestDocsNameRealThings(t *testing.T) {
	_, files, err := parseTree(".")
	if err != nil {
		t.Fatal(err)
	}
	ix := buildDeclIndex(files)
	rf := indexRepoFiles(t)
	flags := indexCmdFlags(files)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced || pastTense.MatchString(line) {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				span := m[1]
				for _, name := range testName.FindAllString(span, -1) {
					if !ix.tests[name] {
						t.Errorf("%s:%d: `%s` names no test, fuzz target or benchmark", doc, i+1, name)
					}
				}
				if msg := rf.checkFileRef(span); msg != "" {
					t.Errorf("%s:%d: `%s` %s", doc, i+1, span, msg)
				}
				if msg := flags.check(span); msg != "" {
					t.Errorf("%s:%d: `%s` %s", doc, i+1, span, msg)
				}
				for _, c := range cmdRef.FindAllStringSubmatch(span, -1) {
					if fi, err := os.Stat(filepath.Join("cmd", c[1])); err != nil || !fi.IsDir() {
						t.Errorf("%s:%d: `%s` names no directory cmd/%s", doc, i+1, span, c[1])
					}
				}
				if !dottedName.MatchString(span) || fileName.MatchString(span) {
					continue
				}
				name := span
				if p := strings.IndexByte(name, '('); p >= 0 {
					name = name[:p]
				}
				if checked, ok := ix.resolve(strings.Split(name, ".")); checked && !ok {
					t.Errorf("%s:%d: `%s` names no declaration", doc, i+1, span)
				}
			}
		}
	}
}

// TestFileRefCheck plants good and stale file references and command
// lines: a path from the root or from inside a module, a base name, a
// line within its file, a glob and registered flags pass; a missing
// file, a line past the end, a shorthand for two files and a flag its
// command does not register fail.
func TestFileRefCheck(t *testing.T) {
	rf := indexRepoFiles(t)
	_, files, err := parseTree(".")
	if err != nil {
		t.Fatal(err)
	}
	flags := indexCmdFlags(files)
	for span, stale := range map[string]bool{
		"internal/core/path.go":                          false,
		"core/path.go":                                   false,
		"decls_test.go:1":                                false,
		"examples/*/testdata/*.golden":                   false,
		"rotaload -selftest -cluster 3 -seed=42":         false,
		"go run ./cmd/rotabench [-exp e4] [-csv] | head": false,
		"gossip.go":                                      true,
		"decls_test.go:1000000":                          true,
		"BENCH_PR9/10.json":                              true,
		"go run ./cmd/rotad -addr :8080 -policy rota":    true,
		"rotaload -selftest && rotad -addr :1 --no-such": true,
	} {
		if got := rf.checkFileRef(span) != "" || flags.check(span) != ""; got != stale {
			t.Errorf("`%s`: stale = %v, want %v", span, got, stale)
		}
	}
}
