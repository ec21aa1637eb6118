package main

import (
	"bytes"
	"errors"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
// invocation in a document: in markdown, its code (see codeSpans); any line
// elsewhere. Shell comments and pipes end a command.
func experimentsCommands(text string, markdown bool) []string {
	spans := strings.Split(text, "\n")
	if markdown {
		spans = codeSpans(text)
	}
	var cmds []string
	for _, s := range spans {
		i := strings.Index(s, experimentsCmd)
		if i < 0 {
			continue
		}
		s = s[i+len(experimentsCmd):]
		if j := strings.IndexAny(s, "#|"); j >= 0 {
			s = s[:j]
		}
		cmds = append(cmds, s)
	}
	return cmds
}

// codeSpans returns the code of a markdown document: fenced code lines
// (with backslash continuations), indented code lines and inline code
// spans, which may wrap.
func codeSpans(text string) []string {
	var spans, prose []string
	fenced, cont := false, ""
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced && strings.HasSuffix(line, `\`):
			cont += strings.TrimSuffix(line, `\`) + " "
		case fenced:
			spans = append(spans, cont+line)
			cont = ""
		case strings.HasPrefix(line, "    ") && !strings.Contains(line, "`"):
			spans = append(spans, line)
		default:
			prose = append(prose, line)
		}
	}
	for _, m := range inlineCode.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		spans = append(spans, m[1])
	}
	return spans
}

// goCommand is a go build, go run or go test invocation up to the end of its
// shell command.
var goCommand = regexp.MustCompile(`go (build|run|test)\s([^#|;&]*)`)

// cmdPath is a command directory as a document names it: cmd/<name> or
// ./cmd/<name>, not nested in another path.
var cmdPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])(?:\./)?cmd/([A-Za-z0-9_-]+)`)

// TestDocsRunExistingPackages fails when a document tells a reader to
// go run a directory that holds no main package, or to go build or go test
// one that holds no package, or when its code names a cmd/<name> that holds
// no main package.
func TestDocsRunExistingPackages(t *testing.T) {
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "docs/RUNBOOK.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if os.IsNotExist(err) {
			t.Logf("%s: not present, skipped", doc)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(data)) {
			for _, m := range goCommand.FindAllStringSubmatch(span, -1) {
				for _, arg := range strings.Fields(m[2]) {
					if arg != "." && !strings.HasPrefix(arg, "./") {
						continue
					}
					dir := strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/")
					name, err := packageName(dir)
					switch {
					case err != nil:
						t.Errorf("%s: go %s %s: %v", doc, m[1], arg, err)
					case m[1] == "run" && name != "main":
						t.Errorf("%s: go run %s: package %s is not a main package", doc, arg, name)
					}
					if m[1] == "run" {
						break // the arguments after the package are the program's
					}
				}
			}
			for _, m := range cmdPath.FindAllStringSubmatch(span, -1) {
				if name, err := packageName("cmd/" + m[1]); err != nil || name != "main" {
					t.Errorf("%s: `%s` names cmd/%s, which holds no main package", doc, span, m[1])
				}
			}
		}
	}
}

// TestEveryCommandIsRun fails when no CI step runs or builds a command and
// docs/RUNBOOK.md does not run it either: a binary nothing runs rots unseen.
// cmd/experiments is exempt, as the paper's figures are its output.
func TestEveryCommandIsRun(t *testing.T) {
	ran := map[string]bool{"experiments": true}
	var spans []string
	for _, doc := range []string{".github/workflows/ci.yml", "docs/RUNBOOK.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(doc, ".md") {
			spans = append(spans, codeSpans(string(data))...)
		} else {
			spans = append(spans, strings.Split(string(data), "\n")...)
		}
	}
	for _, span := range spans {
		for _, m := range goCommand.FindAllStringSubmatch(span, -1) {
			if m[1] == "test" {
				continue
			}
			for _, arg := range strings.Fields(m[2]) {
				if name, ok := strings.CutPrefix(arg, "./cmd/"); ok {
					ran[name] = true
				}
				if m[1] == "run" && strings.HasPrefix(arg, "./") {
					break // the arguments after the package are the program's
				}
			}
		}
	}
	dirs, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		if name := filepath.Base(dir); !ran[name] {
			t.Errorf("cmd/%s is run by no CI step and by nothing in docs/RUNBOOK.md", name)
		}
	}
}

// packageName returns the package clause of the non-test Go files in dir, a
// path from the repository root.
func packageName(dir string) (string, error) {
	files, err := filepath.Glob(filepath.Join("..", "..", dir, "*.go"))
	if err != nil {
		return "", err
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
		if err != nil {
			return "", err
		}
		return file.Name.Name, nil
	}
	return "", errors.New("no Go package in " + dir)
}

// docTable returns the body rows of the first markdown table after the line
// of doc (a path from the repository root) containing heading, one trimmed
// string per cell.
func docTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", doc))
	if err != nil {
		t.Fatal(err)
	}
	_, text, ok := strings.Cut(string(data), heading)
	if !ok {
		t.Fatalf("%s has no %q", doc, heading)
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
		t.Fatalf("%s: no table after %q", doc, heading)
	}
	return rows[2:] // past the header and the separator
}

// TestRunbookMetricFamiliesMatchRegistry fails when RUNBOOK's metric table
// names a family no package registers, or a registered family is missing
// from it. This binary links every instrumented package, so WriteMetrics
// prints a HELP line for each registered family.
func TestRunbookMetricFamiliesMatchRegistry(t *testing.T) {
	documented := map[string]bool{}
	for _, row := range docTable(t, "docs/RUNBOOK.md", "Metric families by subsystem") {
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

// runbookSections maps each service binary to the heading of its RUNBOOK.md
// section.
var runbookSections = map[string]string{
	"cmd/cluster":   "## cmd/cluster —",
	"cmd/replicate": "## cmd/replicate —",
	"cmd/gateway":   "## cmd/gateway —",
}

// docFlag is a -flag as prose, code or a table names it.
var docFlag = regexp.MustCompile(`(?:^|[^A-Za-z0-9-])-([a-z][a-z0-9-]*)`)

// TestRunbookFlagsMatchBinaries fails when a service binary defines a flag
// that its RUNBOOK.md section, the conventions every service shares and the
// Telemetry section all leave unnamed, or when a section's flag table
// documents a flag its binary does not define.
func TestRunbookFlagsMatchBinaries(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs/RUNBOOK.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	section := func(heading string) string {
		_, rest, ok := strings.Cut(text, heading)
		if !ok {
			t.Fatalf("RUNBOOK.md has no %q", heading)
		}
		body, _, _ := strings.Cut(rest, "\n## ")
		return body
	}
	shared, _, _ := strings.Cut(text, "\n## ") // the conventions, before the first section
	shared += section("## Telemetry")
	for bin, heading := range runbookSections {
		defined := definedFlags(t, bin)
		named := map[string]bool{}
		for _, m := range docFlag.FindAllStringSubmatch(shared+section(heading), -1) {
			named[m[1]] = true
		}
		for name := range defined {
			if !named[name] {
				t.Errorf("%s defines -%s, which RUNBOOK.md names neither in its section, the shared conventions nor Telemetry", bin, name)
			}
		}
		for _, row := range docTable(t, "docs/RUNBOOK.md", heading) {
			for _, m := range docFlag.FindAllStringSubmatch(row[0], -1) {
				if !defined[m[1]] {
					t.Errorf("RUNBOOK.md's %s table documents -%s, which %s does not define", bin, m[1], bin)
				}
			}
		}
	}
}

// definedFlags returns the name of every flag.*("name", …) call in dir's
// main.go, a path from the repository root.
func definedFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", dir, "main.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names[name] = true
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s/main.go defines no flags", dir)
	}
	return names
}

// TestRunbookTypedErrorsAreDeclared fails when an identifier in RUNBOOK's
// typed-error table is not declared in the package its row names, and when
// an exported …Error struct type in non-test internal/ code has no row
// (chaos.Error, the fault type behind chaos.ErrInjected's row, has no
// prefix and is not one).
func TestRunbookTypedErrorsAreDeclared(t *testing.T) {
	decls := map[string]map[string]bool{}
	rows := map[string]bool{} // package/name
	for _, row := range docTable(t, "docs/RUNBOOK.md", "## Typed errors, one place") {
		name := strings.TrimSuffix(strings.TrimPrefix(strings.Trim(row[0], "`"), "*"), "()")
		if i := strings.LastIndex(name, "."); i >= 0 {
			name = name[i+1:] // a package-qualified name: chaos.ErrInjected
		}
		pkg := strings.Trim(row[1], "`")
		if decls[pkg] == nil {
			decls[pkg], _ = declaredNames(t, filepath.Join("..", "..", pkg))
		}
		if !decls[pkg][name] {
			t.Errorf("RUNBOOK.md's typed-error table names %s, which %s does not declare", row[0], pkg)
		}
		rows[pkg+"/"+name] = true
	}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(root, filepath.Dir(path))
		for _, d := range f.Decls {
			if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.TYPE {
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					name := ts.Name.Name
					if _, ok := ts.Type.(*ast.StructType); ok && ts.Name.IsExported() && strings.HasSuffix(name, "Error") &&
						name != "Error" && !rows[filepath.ToSlash(pkg)+"/"+name] {
						t.Errorf("%s declares the error type %s, which RUNBOOK.md's typed-error table has no row for", pkg, name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declaredNames parses the non-test Go files in dir and returns every
// top-level name they declare (types, functions, methods, vars and consts)
// and, per type name, the methods and struct or interface fields it has.
func declaredNames(t *testing.T, dir string) (names map[string]bool, members map[string]map[string]bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no Go files (%v)", dir, err)
	}
	names, members = map[string]bool{}, map[string]map[string]bool{}
	member := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][name] = true
	}
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
				if d.Recv != nil {
					member(typeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						fields := &ast.FieldList{}
						switch ty := s.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields
						case *ast.InterfaceType:
							fields = ty.Methods
						}
						for _, f := range fields.List {
							for _, n := range f.Names {
								member(s.Name.Name, n.Name)
							}
							if len(f.Names) == 0 { // embedded
								member(s.Name.Name, typeName(f.Type))
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names, members
}

// typeName is the name of the type a receiver or embedded field refers to:
// T, *T and pkg.T all name T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// docRef is a code span that starts with an exported identifier of a
// package, pkg.Name, or with a member of one of its types, pkg.Type.Member.
var docRef = regexp.MustCompile(`^([a-z]+)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)

// TestDocsNameExistingIdentifiers fails when a document names, in a code
// span, an identifier of a package under internal/ that the package does not
// declare: pkg.Name must be a package-level declaration or a method or field
// of one of the package's types, and pkg.Type.Member a method or field of
// Type.
func TestDocsNameExistingIdentifiers(t *testing.T) {
	type decls struct {
		names   map[string]bool
		members map[string]map[string]bool
	}
	pkgs := map[string]decls{}
	entries, err := os.ReadDir(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			names, members := declaredNames(t, filepath.Join("..", "..", "internal", e.Name()))
			pkgs[e.Name()] = decls{names, members}
		}
	}
	checked := map[string]bool{}
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "docs/RUNBOOK.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(data)) {
			m := docRef.FindStringSubmatch(span)
			if m == nil {
				continue
			}
			d, ok := pkgs[m[1]]
			if !ok {
				continue
			}
			checked[m[0]] = true
			var found bool
			if m[3] != "" {
				found = d.members[m[2]][m[3]]
			} else {
				found = d.names[m[2]]
				for _, ms := range d.members {
					found = found || ms[m[2]]
				}
			}
			if !found {
				t.Errorf("%s names `%s`, which internal/%s does not declare", doc, m[0], m[1])
			}
		}
	}
	if len(checked) == 0 {
		t.Fatal("no package-qualified identifier found in the docs")
	}
	t.Logf("%d distinct identifiers checked", len(checked))
}

// frameProtocols maps each protocol DESIGN.md's frame-type registry names
// to the file declaring its frame constants.
var frameProtocols = map[string]string{
	"standby":                     "internal/replication/protocol.go",
	"client session (`MMOGATE1`)": "internal/session/net.go",
}

// frameConst is a frame-type constant's name.
var frameConst = regexp.MustCompile(`^(ft|Frame|frame)[A-Z]`)

// TestFrameRegistryMatchesConstants fails when a value in DESIGN.md's
// frame-type registry has no frame constant of that value in the named
// protocol's package, or a frame constant is missing from the registry. A
// row whose protocol is "—" lists unassigned values.
func TestFrameRegistryMatchesConstants(t *testing.T) {
	documented := map[string]map[int64]bool{} // by protocol
	for _, row := range docTable(t, "DESIGN.md", "Frame-type registry") {
		proto := row[1]
		if proto == "—" {
			continue
		}
		file, ok := frameProtocols[proto]
		if !ok {
			t.Errorf("DESIGN.md's frame registry lists %s for protocol %q, which declares no frame constants", row[0], proto)
			continue
		}
		consts := frameConsts(t, file)
		if documented[proto] == nil {
			documented[proto] = map[int64]bool{}
		}
		for _, part := range strings.Split(strings.ReplaceAll(row[0], "`", ""), ",") {
			lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "–")
			if !isRange {
				hi = lo
			}
			from, err1 := strconv.ParseInt(lo, 0, 64)
			to, err2 := strconv.ParseInt(hi, 0, 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("DESIGN.md's frame registry: bad value %q", row[0])
			}
			for v := from; v <= to; v++ {
				if consts[v] == "" {
					t.Errorf("DESIGN.md's frame registry lists %s value %d, which no constant in %s has", proto, v, file)
				}
				documented[proto][v] = true
			}
		}
	}
	for proto, file := range frameProtocols {
		for v, name := range frameConsts(t, file) {
			if !documented[proto][v] {
				t.Errorf("frame constant %s = %d (%s) is missing from DESIGN.md's frame registry", name, v, proto)
			}
		}
	}
}

// frameConsts returns the frame-type constants file declares, by value.
func frameConsts(t *testing.T, file string) map[int64]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", file), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[int64]string{}
	for _, d := range f.Decls {
		if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.CONST {
			for _, spec := range d.Specs {
				s := spec.(*ast.ValueSpec)
				for i, n := range s.Names {
					if !frameConst.MatchString(n.Name) || i >= len(s.Values) {
						continue
					}
					if lit, ok := s.Values[i].(*ast.BasicLit); ok && lit.Kind == token.INT {
						v, err := strconv.ParseInt(lit.Value, 0, 64)
						if err != nil {
							t.Fatal(err)
						}
						consts[v] = n.Name
					}
				}
			}
		}
	}
	if len(consts) == 0 {
		t.Fatalf("%s declares no frame constants", file)
	}
	return consts
}

// TestReadmePackageMapIsComplete fails when README's "What's here" block
// misses a directory under internal/ or cmd/, or names one that
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
	for _, dir := range []string{"internal", "cmd"} {
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
