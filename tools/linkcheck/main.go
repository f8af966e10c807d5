// Command linkcheck verifies the repository-relative links in Markdown
// files: every [text](path) whose target is not an absolute URL must name
// an existing file or directory (anchors are stripped). CI runs it over
// README.md, ROADMAP.md and docs/ so documentation links cannot rot.
//
//	go run ./tools/linkcheck README.md ROADMAP.md docs
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: linkcheck <markdown file or dir>...")
		os.Exit(2)
	}
	var files []string
	for _, arg := range os.Args[1:] {
		info, err := os.Stat(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
			os.Exit(2)
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
			os.Exit(2)
		}
	}

	broken := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
			os.Exit(2)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue // external links and in-page anchors are not checked
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				fmt.Printf("%s: broken link %s\n", file, m[1])
				broken++
			}
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d broken links\n", broken)
		os.Exit(1)
	}
}
