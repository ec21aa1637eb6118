package main

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// docFiles are the documents whose -exp names and cmd/experiments flags
// must exist. CHANGES.md and ROADMAP.md are history and are not checked.
var docFiles = []string{
	"README.md",
	"ARCHITECTURE.md",
	"DESIGN.md",
	"docs/RUNBOOK.md",
	".claude/skills/verify/SKILL.md",
	".github/workflows/ci.yml",
}

const experimentsCmd = "go run ./cmd/experiments"

var (
	// expValue is a -exp argument: comma- or slash-separated names.
	expValue   = regexp.MustCompile(`-exp[ =]([A-Za-z0-9,/-]+)`)
	matrixExp  = regexp.MustCompile(`(?m)^\s*-?\s*exp:\s*(\S+)`)
	matrixArgs = regexp.MustCompile(`(?m)^\s*args:\s*(.*)$`)
	flagName   = regexp.MustCompile(`(?:^|\s)--?([a-z][a-z0-9-]*)`)
	inlineCode = regexp.MustCompile("`([^`]+)`")
	// family is a metric family as RUNBOOK writes it: snake_case, with an
	// optional {label} suffix.
	family = regexp.MustCompile(`^([a-z][a-z0-9]*(?:_[a-z0-9]+)+)(?:\{[a-z]+\})?$`)
)

// TestDocsNameRegisteredExperimentsAndFlags fails when a document names an
// experiment that is not in experimentTable, or runs cmd/experiments with a
// flag main does not define.
func TestDocsNameRegisteredExperimentsAndFlags(t *testing.T) {
	known := map[string]bool{"all": true, "list": true}
	for _, name := range experimentNames() {
		known[name] = true
	}
	checkExp := func(doc, value string) {
		for _, name := range strings.FieldsFunc(value, func(r rune) bool { return r == ',' || r == '/' }) {
			if !known[name] {
				t.Errorf("%s: -exp %s names unregistered experiment %q", doc, value, name)
			}
		}
	}
	checkFlags := func(doc, args string) {
		for _, m := range flagName.FindAllStringSubmatch(args, -1) {
			if flag.Lookup(m[1]) == nil {
				t.Errorf("%s: %q uses undefined flag -%s", doc, strings.TrimSpace(args), m[1])
			}
		}
	}

	for _, doc := range docFiles {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if os.IsNotExist(err) {
			t.Logf("%s: not present, skipped", doc)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range expValue.FindAllStringSubmatch(text, -1) {
			checkExp(doc, m[1])
		}
		if strings.HasSuffix(doc, ".yml") {
			for _, m := range matrixExp.FindAllStringSubmatch(text, -1) {
				checkExp(doc, m[1])
			}
			for _, m := range matrixArgs.FindAllStringSubmatch(text, -1) {
				checkFlags(doc, m[1])
			}
		}
		for _, cmd := range experimentsCommands(text, strings.HasSuffix(doc, ".md")) {
			checkFlags(doc, cmd)
		}
	}
}

// experimentsCommands returns the argument text of every cmd/experiments
// invocation in a document: fenced code lines (with backslash
// continuations), indented code lines and inline code spans — which may wrap
// — in markdown; any line elsewhere. Shell comments and pipes end a command.
func experimentsCommands(text string, markdown bool) []string {
	var cmds []string
	add := func(s string) {
		i := strings.Index(s, experimentsCmd)
		if i < 0 {
			return
		}
		s = s[i+len(experimentsCmd):]
		if j := strings.IndexAny(s, "#|"); j >= 0 {
			s = s[:j]
		}
		cmds = append(cmds, s)
	}
	if !markdown {
		for _, line := range strings.Split(text, "\n") {
			add(line)
		}
		return cmds
	}
	var prose []string
	fenced, cont := false, ""
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced && strings.HasSuffix(line, `\`):
			cont += strings.TrimSuffix(line, `\`) + " "
		case fenced:
			add(cont + line)
			cont = ""
		case strings.HasPrefix(line, "    ") && !strings.Contains(line, "`"):
			add(line)
		default:
			prose = append(prose, line)
		}
	}
	for _, m := range inlineCode.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		add(m[1])
	}
	return cmds
}

// runbookTable returns the body rows of the first markdown table after the
// RUNBOOK line containing heading, one trimmed string per cell.
func runbookTable(t *testing.T, heading string) [][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "RUNBOOK.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, text, ok := strings.Cut(string(data), heading)
	if !ok {
		t.Fatalf("RUNBOOK.md has no %q", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	if len(rows) < 3 {
		t.Fatalf("RUNBOOK.md: no table after %q", heading)
	}
	return rows[2:] // past the header and the separator
}

// TestRunbookMetricFamiliesMatchRegistry fails when RUNBOOK's metric table
// names a family no package registers, or a registered family is missing
// from it. This binary links every instrumented package, so WriteMetrics
// prints a HELP line for each registered family.
func TestRunbookMetricFamiliesMatchRegistry(t *testing.T) {
	documented := map[string]bool{}
	for _, row := range runbookTable(t, "Metric families by subsystem") {
		for _, m := range inlineCode.FindAllStringSubmatch(row[len(row)-1], -1) {
			if f := family.FindStringSubmatch(m[1]); f != nil {
				documented[f[1]] = true
			}
		}
	}
	var out bytes.Buffer
	if err := telemetry.WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			registered[name] = true
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("RUNBOOK.md documents metric family %s, which nothing registers", name)
		}
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("metric family %s is registered but missing from RUNBOOK.md's table", name)
		}
	}
}

// TestRunbookTypedErrorsAreDeclared fails when an identifier in RUNBOOK's
// typed-error table is not declared in the package its row names.
func TestRunbookTypedErrorsAreDeclared(t *testing.T) {
	decls := map[string]map[string]bool{}
	for _, row := range runbookTable(t, "## Typed errors, one place") {
		name := strings.TrimSuffix(strings.TrimPrefix(strings.Trim(row[0], "`"), "*"), "()")
		if i := strings.LastIndex(name, "."); i >= 0 {
			name = name[i+1:] // a package-qualified name: chaos.ErrInjected
		}
		pkg := strings.Trim(row[1], "`")
		if decls[pkg] == nil {
			decls[pkg] = declaredNames(t, filepath.Join("..", "..", pkg))
		}
		if !decls[pkg][name] {
			t.Errorf("RUNBOOK.md's typed-error table names %s, which %s does not declare", row[0], pkg)
		}
	}
}

// declaredNames parses the non-test Go files in dir and returns every
// top-level name they declare: types, functions, methods, vars and consts.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no Go files (%v)", dir, err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// TestReadmePackageMapIsComplete fails when README's "What's here" block
// misses a directory under internal/, cmd/ or examples/, or names one that
// does not exist. An entry is a two-space-indented line; its names are the
// "name/" tokens before the first gap of two spaces.
func TestReadmePackageMapIsComplete(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "## What's here")
	if start < 0 {
		t.Fatal("README has no \"What's here\" section")
	}
	block := strings.SplitN(text[start:], "```", 3)
	if len(block) < 3 {
		t.Fatal("README's \"What's here\" section has no code block")
	}
	named := map[string]bool{} // "root/name"
	root := ""
	entry := regexp.MustCompile(`([a-z0-9_]+)/`)
	for _, line := range strings.Split(block[1], "\n") {
		switch {
		case strings.HasSuffix(line, "/") && !strings.HasPrefix(line, " "):
			root = strings.TrimSuffix(line, "/")
		case strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") && root != "":
			head, _, _ := strings.Cut(strings.TrimSpace(line), "  ")
			for _, m := range entry.FindAllStringSubmatch(head, -1) {
				named[root+"/"+m[1]] = true
			}
		}
	}
	for _, dir := range []string{"internal", "cmd", "examples"} {
		ents, err := os.ReadDir(filepath.Join("..", "..", dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			if ent.IsDir() && !named[dir+"/"+ent.Name()] {
				t.Errorf("README's package map does not list %s/%s", dir, ent.Name())
			}
		}
	}
	for name := range named {
		if info, err := os.Stat(filepath.Join("..", "..", name)); err != nil || !info.IsDir() {
			t.Errorf("README's package map lists %s, which is not a directory", name)
		}
	}
}
