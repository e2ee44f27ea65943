// Command reachable lists every function declared in the non-test Go files
// under internal/, cmd/ and examples/ that no program built from this
// repository links, and exits 1 if there is any. Run it from the module
// root:
//
//	go run ./scripts/reachable
//
// The roots are every main package of the module, the benchmark program in
// qfebench/ (built with -mod=readonly), and a program generated into a
// temporary directory that uses every exported function and variable of the
// root package (the qfe facade). The methods of the facade's aliased types
// are not roots. Each root is built with inlining off (-gcflags=all=-l), so
// an inlined function keeps its symbol, and its symbols are listed with
// `go tool nm`. A declaration is reached when a symbol names it, the pointer
// wrapper of a value-receiver method, a generic instantiation of it or a
// closure inside it.
//
// allowlist.txt names the functions kept without a product caller, one per
// line with its reason; an entry that names no declaration, or a linked
// one, is reported too. The test-support package internal/testref is not
// checked, but no non-test file may import it. The builds write only to a
// temporary directory, which is removed on exit, and download nothing.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// checkedDirs are the module-relative trees whose declarations must be
// reached.
var checkedDirs = []string{"internal", "cmd", "examples"}

// testSupport holds the reference implementations that the tests of
// several packages share. No binary links it, so its declarations are not
// checked; instead no non-test file may import it.
const testSupport = "internal/testref"

// decl is one function or method declaration.
type decl struct {
	pos  string // file:line, relative to the module root
	pkg  string // module-relative import path, e.g. "internal/relation"
	name string // "F" or "T.M"
}

func (d decl) String() string { return d.pkg + "." + d.name }

// symbols holds what the roots link: for each module-relative package path
// the names of the declarations whose code is present. A main package's
// symbols are filed under its own path, since every binary calls it "main".
type symbols map[string]map[string]bool

func (s symbols) add(pkg, name string) {
	if s[pkg] == nil {
		s[pkg] = map[string]bool{}
	}
	s[pkg][name] = true
}

// module is the main module as `go list -m -json` describes it.
type module struct{ Path, Dir, GoVersion string }

// pkg is one package as `go list -json` describes it.
type pkg struct {
	ImportPath, Name, Dir string
	GoFiles, Imports      []string
}

func main() {
	tmp, err := os.MkdirTemp("", "reachable-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachable:", err)
		os.Exit(2)
	}
	lines, err := check(tmp)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachable:", err)
		os.Exit(2)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(lines) > 0 {
		os.Exit(1)
	}
}

// check builds the roots into tmp and returns the report's lines.
func check(tmp string) ([]string, error) {
	out, err := goCmd("", "list", "-m", "-json")
	if err != nil {
		return nil, err
	}
	var mod module
	if err := json.Unmarshal([]byte(out), &mod); err != nil {
		return nil, fmt.Errorf("go list -m: %v", err)
	}
	if out, err = goCmd(mod.Dir, "list", "-json", "./..."); err != nil {
		return nil, err
	}
	var pkgs []pkg
	for dec := json.NewDecoder(strings.NewReader(out)); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	decls, err := declarations(mod, pkgs)
	if err != nil {
		return nil, err
	}
	allow, err := readAllowlist(filepath.Join(mod.Dir, "scripts", "reachable", "allowlist.txt"))
	if err != nil {
		return nil, err
	}
	syms, err := linked(mod, pkgs, tmp)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, p := range pkgs {
		if contains(p.Imports, mod.Path+"/"+testSupport) {
			lines = append(lines, rel(mod, p.ImportPath)+" imports "+testSupport+" outside its tests")
		}
	}
	return append(lines, report(decls, syms, allow)...), nil
}

// report returns "file:line name" for each declaration no root links and no
// allowlist entry covers, then one line per allowlist entry that names no
// declaration or names a linked one.
func report(decls []decl, syms symbols, allow map[string]bool) []string {
	var lines []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.String()] = true
		reached := syms[d.pkg][d.name]
		switch {
		case !reached && !allow[d.String()]:
			lines = append(lines, d.pos+" "+d.String())
		case reached && allow[d.String()]:
			lines = append(lines, "allowlist.txt: "+d.String()+" is linked; drop its entry")
		}
	}
	var stale []string
	for name := range allow {
		if !declared[name] {
			stale = append(stale, "allowlist.txt: "+name+" is not declared")
		}
	}
	sort.Strings(stale)
	return append(lines, stale...)
}

// parseSymbol maps a linker symbol to the package path and the name of the
// declaration whose code it holds. A compiler-generated symbol, such as a
// type's equality function, yields a package path no declaration has.
func parseSymbol(sym string) (pkg, name string, ok bool) {
	// Generic instantiations: F[go.shape.int], (*T[go.shape.int]).M. The
	// type arguments may hold package paths, so drop them first.
	s := stripTypeArgs(sym)
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot < 0 {
		return "", "", false
	}
	pkg, rest := s[:slash+1+dot], s[slash+1+dot+1:]
	// The pointer wrapper (*T).M of a value-receiver method T.M.
	rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
	// Closures: F.func1, F.func1.2, T.M.gowrap1.
	parts := strings.Split(rest, ".")
	for len(parts) > 1 && isClosure(parts[len(parts)-1]) {
		parts = parts[:len(parts)-1]
	}
	return pkg, strings.Join(parts, "."), true
}

// isClosure reports whether seg names a closure or a closure nested in one.
func isClosure(seg string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap", ""} {
		if n, ok := strings.CutPrefix(seg, p); ok && n != "" {
			if _, err := strconv.Atoi(n); err == nil {
				return true
			}
		}
	}
	return false
}

// stripTypeArgs drops every bracketed type-argument list from sym.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllowlist reads "name reason..." lines; blank lines and lines
// starting with # are skipped, and every entry must give a reason.
func readAllowlist(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		allow[name] = true
	}
	return allow, nil
}

// rel is the module-relative import path of one of the module's packages.
func rel(mod module, path string) string {
	return strings.TrimPrefix(strings.TrimPrefix(path, mod.Path), "/")
}

// declarations parses the non-test files the go command builds under
// checkedDirs, testSupport aside, and returns their function declarations.
func declarations(mod module, pkgs []pkg) ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	for _, p := range pkgs {
		r := rel(mod, p.ImportPath)
		top, _, _ := strings.Cut(r, "/")
		if !contains(checkedDirs, top) || r == testSupport {
			continue
		}
		for _, file := range p.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(p.Dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" {
					continue
				}
				at := fset.Position(fd.Pos())
				pos, _ := filepath.Rel(mod.Dir, at.Filename)
				decls = append(decls, decl{
					pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(pos), at.Line),
					pkg:  r,
					name: funcName(fd),
				})
			}
		}
	}
	return decls, nil
}

// funcName is "F" for a function and "T.M" for a method, whatever T's
// pointer-ness and type parameters.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fmt.Sprintf("%T.%s", t, fd.Name.Name)
		}
	}
}

// linked builds every root into tmp and returns the symbols they hold.
func linked(mod module, pkgs []pkg, tmp string) (symbols, error) {
	syms := symbols{}
	built := 0
	// root builds one program in dir, with the trailing go build
	// arguments, and files its symbols; mainPkg names the package its
	// "main." symbols belong to, or is "" for a program written here.
	root := func(dir, mainPkg string, args ...string) error {
		built++
		exe := filepath.Join(tmp, "bin", strconv.Itoa(built))
		args = append([]string{"build", "-gcflags=all=-l", "-o", exe}, args...)
		if _, err := goCmd(dir, args...); err != nil {
			return err
		}
		nm, err := goCmd("", "tool", "nm", exe)
		if err != nil {
			return err
		}
		fileSymbols(syms, mod.Path, mainPkg, nm)
		return nil
	}
	for _, p := range pkgs {
		switch {
		case p.Name == "main":
			if err := root(mod.Dir, rel(mod, p.ImportPath), p.ImportPath); err != nil {
				return nil, err
			}
		case p.ImportPath == mod.Path:
			facade := filepath.Join(tmp, "facade")
			if err := writeFacadeRoot(mod, p, facade); err != nil {
				return nil, err
			}
			if err := root(facade, "", "."); err != nil {
				return nil, err
			}
		}
	}
	if err := root(filepath.Join(mod.Dir, "qfebench"), "", "-mod=readonly", "."); err != nil {
		return nil, err
	}
	return syms, nil
}

// fileSymbols files the text symbols of `go tool nm` output that belong to
// module mod under their packages. The main package's go under mainPkg, or
// are dropped when mainPkg is "".
func fileSymbols(syms symbols, mod, mainPkg, nm string) {
	for _, line := range strings.Split(nm, "\n") {
		// "address kind name"; a symbol name may contain spaces.
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		pkg, name, ok := parseSymbol(f[2])
		switch {
		case !ok:
		case pkg == "main":
			if mainPkg != "" {
				syms.add(mainPkg, name)
			}
		case strings.HasPrefix(pkg, mod+"/"):
			syms.add(strings.TrimPrefix(pkg, mod+"/"), name)
		}
	}
}

// writeFacadeRoot writes into dir a module whose main package uses every
// exported function and variable of the facade package p.
func writeFacadeRoot(mod module, p pkg, dir string) error {
	var src bytes.Buffer
	fmt.Fprintf(&src, "package main\n\nimport (\n\t\"fmt\"\n\n\t%q\n)\n\nfunc main() {\n\tfmt.Println(\n", p.ImportPath)
	fset := token.NewFileSet()
	for _, file := range p.GoFiles {
		af, err := parser.ParseFile(fset, filepath.Join(p.Dir, file), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var names []*ast.Ident
		for _, d := range af.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Type.TypeParams == nil {
					names = append(names, d.Name)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					for _, s := range d.Specs {
						names = append(names, s.(*ast.ValueSpec).Names...)
					}
				}
			}
		}
		for _, n := range names {
			if n.IsExported() {
				fmt.Fprintf(&src, "\t\t%s.%s,\n", p.Name, n.Name)
			}
		}
	}
	src.WriteString("\t)\n}\n")
	gomod := fmt.Sprintf("module reachableroot\n\ngo %s\n\nrequire %s v0.0.0\n\nreplace %s => %s\n",
		mod.GoVersion, mod.Path, mod.Path, mod.Dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "main.go"), src.Bytes(), 0o644)
}

// goCmd runs the go command in dir with downloads of modules and toolchains
// turned off, and returns its standard output.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local", "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
