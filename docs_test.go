package amnt_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignSectionReferences: every "DESIGN.md §N" (or "DESIGN §N.M")
// in the documents and the Go source names a section DESIGN.md has, so
// renumbering the design fails here rather than misleading a reader.
func TestDesignSectionReferences(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)[. ]`).FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}

	files := []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "bench/README.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A reference may quote the file name and break across lines, also
	// across "//" in a comment.
	ref := regexp.MustCompile("DESIGN(?:\\.md)?`?(?:\\s|//)*§\\s*(\\d+(?:\\.\\d+)?)")
	for _, file := range files {
		body, err := os.ReadFile(file)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllSubmatchIndex(body, -1) {
			if n := string(body[m[2]:m[3]]); !sections[n] {
				line := 1 + strings.Count(string(body[:m[0]]), "\n")
				t.Errorf("%s:%d: DESIGN.md §%s does not exist", file, line, n)
			}
		}
	}
}

// TestDocLayoutNamesEveryPackage: the layout in doc.go names exactly
// the packages under internal/ and cmd/ that have non-test code, so a
// package added, moved or deleted without its line fails here.
func TestDocLayoutNamesEveryPackage(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "doc.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\t((?:internal|cmd)/\S+)`).FindAllStringSubmatch(f.Doc.Text(), -1) {
		listed[m[1]] = true
	}
	for _, dir := range append(packageDirs(t, "internal"), packageDirs(t, "cmd")...) {
		if !listed[dir] {
			t.Errorf("doc.go's layout omits %s", dir)
		}
		delete(listed, dir)
	}
	for dir := range listed {
		t.Errorf("doc.go's layout names %s, which holds no package", dir)
	}
}
