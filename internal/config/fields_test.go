package config_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
)

// TestEveryConfigFieldIsRead keeps Config to settings the model uses: every
// leaf field's name must appear as a selector (x.Name) in the module's
// non-test Go code outside internal/config and bench/. A field nothing
// selects changes every sweep fingerprint and no simulated bit. The check is
// by name, so a field whose name is shared with a field of another type
// (selected there) can still slip through.
func TestEveryConfigFieldIsRead(t *testing.T) {
	root := filepath.Join("..", "..")
	selected := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch {
			case rel == ".":
			case strings.HasPrefix(d.Name(), "."), d.Name() == "testdata",
				rel == "bench", rel == filepath.Join("internal", "config"):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok {
				selected[s.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(selected) == 0 {
		t.Fatal("no selectors found: the module's Go files were not walked")
	}
	var unread []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
			} else if !selected[f.Name] {
				unread = append(unread, prefix+f.Name)
			}
		}
	}
	walk("", reflect.TypeFor[config.Config]())
	if len(unread) > 0 {
		t.Errorf("config fields no code outside internal/config and bench/ selects: %s", strings.Join(unread, ", "))
	}
}
