package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestReport runs one declaration against the symbols `go tool nm` prints
// for two binaries built from main packages cmd/a and cmd/b. Each of the
// first cases needs one matching rule, so dropping any rule fails its case.
func TestReport(t *testing.T) {
	cases := []struct {
		name  string
		decl  decl
		a, b  []string // symbols of the binaries of cmd/a and cmd/b
		allow string
		want  []string
	}{
		{
			name: "function",
			decl: decl{pos: "a.go:1", pkg: "internal/x", name: "F"},
			b:    []string{"qfe/internal/x.F"},
		},
		{
			name: "value-receiver method reached only through its pointer wrapper",
			decl: decl{pos: "a.go:2", pkg: "internal/x", name: "T.M"},
			a:    []string{"qfe/internal/x.(*T).M"},
		},
		{
			name: "generic function instantiated on a shape",
			decl: decl{pos: "a.go:3", pkg: "internal/x", name: "G"},
			a:    []string{"qfe/internal/x.G[go.shape.int]"},
		},
		{
			name: "method of a generic type whose type argument names a package",
			decl: decl{pos: "a.go:4", pkg: "internal/x", name: "S.M"},
			a:    []string{"qfe/internal/x.(*S[qfe/internal/y.V]).M"},
		},
		{
			name: "function reached only through its closures",
			decl: decl{pos: "a.go:5", pkg: "internal/x", name: "H"},
			a:    []string{"qfe/internal/x.H.func1", "qfe/internal/x.H.func1.2"},
		},
		{
			name:  "allowlisted function",
			decl:  decl{pos: "a.go:6", pkg: "internal/x", name: "Hook"},
			allow: "internal/x.Hook",
		},
		{
			name: "main package function of its own binary",
			decl: decl{pos: "cmd/a/main.go:7", pkg: "cmd/a", name: "run"},
			a:    []string{"main.run"},
		},
		{
			name: "unreached function",
			decl: decl{pos: "a.go:8", pkg: "internal/x", name: "Dead"},
			a:    []string{"qfe/internal/x.Dead2", "qfe/internal/y.Dead", "qfe/internal/x.T.Dead", "other/internal/x.Dead"},
			want: []string{"a.go:8 internal/x.Dead"},
		},
		{
			name: "main package function linked only by another binary",
			decl: decl{pos: "cmd/a/main.go:9", pkg: "cmd/a", name: "helper"},
			b:    []string{"main.helper"},
			want: []string{"cmd/a/main.go:9 cmd/a.helper"},
		},
		{
			name:  "allowlisted function that is linked",
			decl:  decl{pos: "a.go:10", pkg: "internal/x", name: "Used"},
			a:     []string{"qfe/internal/x.Used"},
			allow: "internal/x.Used",
			want:  []string{"allowlist.txt: internal/x.Used is linked; drop its entry"},
		},
		{
			name:  "allowlisted name that is not declared",
			decl:  decl{pos: "a.go:11", pkg: "internal/x", name: "Kept"},
			allow: "internal/x.Gone",
			want: []string{
				"a.go:11 internal/x.Kept",
				"allowlist.txt: internal/x.Gone is not declared",
			},
		},
	}
	nm := func(syms []string) string {
		var b strings.Builder
		for _, s := range syms {
			b.WriteString(" 4a1f20 T " + s + "\n")
		}
		return b.String()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			syms := symbols{}
			fileSymbols(syms, "qfe", "cmd/a", nm(c.a))
			fileSymbols(syms, "qfe", "cmd/b", nm(c.b))
			allow := map[string]bool{}
			if c.allow != "" {
				allow[c.allow] = true
			}
			if got := report([]decl{c.decl}, syms, allow); !reflect.DeepEqual(got, c.want) {
				t.Errorf("report = %q, want %q", got, c.want)
			}
		})
	}
}

func TestParseSymbol(t *testing.T) {
	cases := []struct{ sym, pkg, name string }{
		{"qfe/internal/relation.GroupBy[go.shape.struct { qfe/internal/relation.K uint8 }]", "qfe/internal/relation", "GroupBy"},
		{"qfe/internal/db.(*Joined).Relation.func2.1", "qfe/internal/db", "Joined.Relation"},
		{"qfe/internal/service.(*Manager).Checkpoint.deferwrap1", "qfe/internal/service", "Manager.Checkpoint"},
		{"qfe/internal/obs.init.0", "qfe/internal/obs", "init"},
		{"main.main", "main", "main"},
	}
	for _, c := range cases {
		pkg, name, ok := parseSymbol(c.sym)
		if !ok || pkg != c.pkg || name != c.name {
			t.Errorf("parseSymbol(%q) = %q, %q, %v; want %q, %q", c.sym, pkg, name, ok, c.pkg, c.name)
		}
	}
}
