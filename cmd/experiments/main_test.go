package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
