package amnt_test

import (
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
