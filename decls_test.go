package rota

// Source guards: the library under internal/ and cmd/ declares only what
// a non-test file uses, and the prose docs name only declarations that
// exist. Both read the tree with go/parser alone, so they run with the
// rest of the root package's tests.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names the standard library calls through
// an interface (fmt, errors, net/http, encoding/*, sort, container/heap,
// flag, io). Such a method is used even when no file of the tree names it.
var interfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "ServeHTTP": true,
	"RoundTrip": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "Set": true, "Read": true,
	"Write": true, "Close": true, "Flush": true, "Timeout": true,
	"Temporary": true,
}

// goFile is one parsed .go file of the tree.
type goFile struct {
	path string // slash-separated, relative to the repository root
	test bool
	ast  *ast.File
}

// parseTree parses every .go file under the repository root (the
// benchmark/ module included), skipping hidden and testdata directories.
func parseTree(t *testing.T) (*token.FileSet, []goFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			path: filepath.ToSlash(path),
			test: strings.HasSuffix(name, "_test.go"),
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
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

// TestNoTestOnlyDeclarations fails for a top-level func, method or type
// in a non-test file under internal/ or cmd/ whose name no non-test file
// of the tree names outside its own declaration. A declaration kept for
// tests alone says who uses it on a "Kept:" line of its doc comment.
func TestNoTestOnlyDeclarations(t *testing.T) {
	fset, files := parseTree(t)

	// Every identifier of every non-test file, by name, with its offset
	// so a declaration's own identifiers can be told apart.
	type use struct {
		file string
		pos  token.Pos
	}
	uses := map[string][]use{}
	for _, f := range files {
		if f.test {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], use{f.path, id.Pos()})
			}
			return true
		})
	}
	usedOutside := func(name, file string, from, to token.Pos) bool {
		for _, u := range uses[name] {
			if u.file != file || u.pos < from || u.pos >= to {
				return true
			}
		}
		return false
	}

	var unused []string
	report := func(name string, node ast.Node) {
		unused = append(unused, fset.Position(node.Pos()).String()+": "+name)
	}
	for _, f := range files {
		if f.test || !(strings.HasPrefix(f.path, "internal/") || strings.HasPrefix(f.path, "cmd/")) {
			continue
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv == nil && (name == "main" || name == "init") {
					continue
				}
				if d.Recv != nil && interfaceMethods[name] {
					continue
				}
				if keptLine(d.Doc) || usedOutside(name, f.path, d.Pos(), d.End()) {
					continue
				}
				report(name, d)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if keptLine(d.Doc, ts.Doc) || usedOutside(ts.Name.Name, f.path, ts.Pos(), ts.End()) {
						continue
					}
					report(ts.Name.Name, ts)
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is named by no non-test file: delete it, or say who keeps it on a \"Kept:\" doc line", u)
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
)

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
// package, and every Type.Member whose Type is a repo type. A line that
// calls the name deleted, removed or retired is history and is skipped.
func TestDocsNameRealThings(t *testing.T) {
	_, files := parseTree(t)
	ix := buildDeclIndex(files)
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
