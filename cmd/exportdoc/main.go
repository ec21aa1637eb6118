// Command exportdoc fails when an exported identifier lacks a doc comment.
//
// It walks the package directories given on the command line, parses every
// non-test Go file, and requires a doc comment on each exported function,
// method with an exported receiver, type, constant, and variable. A grouped
// declaration ("const ( ... )" / "var ( ... )") passes if either the group
// or the individual spec is documented. CI runs it over the packages whose
// godoc we guarantee:
//
//	go run ./cmd/exportdoc ./internal/session ./internal/cluster ./internal/replication \
//	    ./internal/recovery
//
// Exit status is the number of undocumented exported identifiers capped at
// 1 — zero means every exported symbol is documented.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: exportdoc <package dir> [<package dir> ...]")
		os.Exit(2)
	}
	var gaps []string
	for _, dir := range os.Args[1:] {
		g, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "exportdoc:", err)
			os.Exit(2)
		}
		gaps = append(gaps, g...)
	}
	if len(gaps) > 0 {
		sort.Strings(gaps)
		for _, g := range gaps {
			fmt.Println(g)
		}
		fmt.Fprintf(os.Stderr, "exportdoc: %d exported identifiers lack doc comments\n", len(gaps))
		os.Exit(1)
	}
}

// checkDir parses the non-test files of one package directory and returns a
// "file:line: identifier" gap per undocumented exported symbol.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var gaps []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		gaps = append(gaps, fmt.Sprintf("%s:%d: %s %s is exported but undocumented",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					checkFunc(d, report)
				case *ast.GenDecl:
					checkGen(d, report)
				}
			}
		}
	}
	return gaps, nil
}

// checkFunc flags exported functions, and methods whose receiver type is
// exported, that carry no doc comment.
func checkFunc(d *ast.FuncDecl, report func(token.Pos, string, string)) {
	if !d.Name.IsExported() || d.Doc != nil {
		return
	}
	what, name := "function", d.Name.Name
	if d.Recv != nil && len(d.Recv.List) == 1 {
		recv := receiverName(d.Recv.List[0].Type)
		if recv == "" || !ast.IsExported(recv) {
			return // method on an unexported type: internal API
		}
		what, name = "method", recv+"."+d.Name.Name
	}
	report(d.Pos(), what, name)
}

// checkGen flags exported names inside type/const/var declarations. A doc
// comment on the grouped declaration covers every spec in the group.
func checkGen(d *ast.GenDecl, report func(token.Pos, string, string)) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(n.Pos(), d.Tok.String(), n.Name)
				}
			}
		}
	}
}

// receiverName unwraps a method receiver type expression down to its type
// identifier ("*Gateway" and "Gateway" both yield "Gateway").
func receiverName(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr: // generic receiver
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
