// apicheck guards the public API surface of the root mitosis package.
//
// It parses the package's non-test sources, extracts every exported
// declaration (functions, methods on exported receivers, types with their
// exported fields and methods, consts and vars), renders them in a
// deterministic normalized form, and compares the result against the
// committed golden file api.txt.
//
// Usage:
//
//	go run ./cmd/apicheck           # compare, exit 1 with a diff on change
//	go run ./cmd/apicheck -write    # regenerate api.txt
//
// CI runs the compare form, so any change to the facade surface shows up
// as an explicit api.txt diff in review. Intentional changes regenerate
// the golden file in the same commit.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	write := flag.Bool("write", false, "regenerate the golden file instead of comparing")
	dir := flag.String("dir", ".", "package directory to scan")
	golden := flag.String("golden", "api.txt", "golden file path (relative to -dir)")
	flag.Parse()

	surface, err := exportedSurface(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: %v\n", err)
		os.Exit(1)
	}
	goldenPath := filepath.Join(*dir, *golden)
	if *write {
		if err := os.WriteFile(goldenPath, []byte(surface), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "apicheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("apicheck: wrote %s (%d lines)\n", goldenPath, strings.Count(surface, "\n"))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: reading golden file: %v\n(run `go run ./cmd/apicheck -write` to create it)\n", err)
		os.Exit(1)
	}
	if string(want) == surface {
		fmt.Println("apicheck: public API surface matches api.txt")
		return
	}
	fmt.Fprintln(os.Stderr, "apicheck: public API surface changed; review the diff and regenerate api.txt with `go run ./cmd/apicheck -write`:")
	printDiff(os.Stderr, strings.Split(string(want), "\n"), strings.Split(surface, "\n"))
	os.Exit(1)
}

// exportedSurface renders the package's exported declarations, sorted.
func exportedSurface(dir string) (string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return "", err
	}
	var decls []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				for _, s := range renderDecl(fset, d) {
					decls = append(decls, s)
				}
			}
		}
	}
	sort.Strings(decls)
	return strings.Join(decls, "\n") + "\n", nil
}

// renderDecl returns the normalized exported renderings of one top-level
// declaration (zero, one, or — for grouped const/var/type decls —
// several).
func renderDecl(fset *token.FileSet, d ast.Decl) []string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedReceiver(d) {
			return nil
		}
		d.Body = nil
		d.Doc = nil
		return []string{render(fset, d)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				pruneUnexported(s.Type)
				s.Doc, s.Comment = nil, nil
				out = append(out, "type "+render(fset, s))
			case *ast.ValueSpec:
				var names []string
				for _, n := range s.Names {
					if n.IsExported() {
						names = append(names, n.Name)
					}
				}
				if len(names) == 0 {
					continue
				}
				kw := "const"
				if d.Tok == token.VAR {
					kw = "var"
				}
				typ := ""
				if s.Type != nil {
					typ = " " + render(fset, s.Type)
				}
				// Values are part of the surface: changing ScenarioVersion
				// or a backend name such as HardwareX8664 is a break the
				// gate must catch.
				val := ""
				if len(s.Values) > 0 {
					var vs []string
					for _, v := range s.Values {
						vs = append(vs, render(fset, v))
					}
					val = " = " + strings.Join(vs, ", ")
				}
				out = append(out, fmt.Sprintf("%s %s%s%s", kw, strings.Join(names, ", "), typ, val))
			}
		}
		return out
	}
	return nil
}

// exportedReceiver reports whether a method's receiver type is exported
// (top-level functions trivially qualify).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return false
		}
	}
}

// pruneUnexported strips unexported fields/methods from struct and
// interface types so internal layout changes don't churn the golden file.
func pruneUnexported(t ast.Expr) {
	switch v := t.(type) {
	case *ast.StructType:
		kept := v.Fields.List[:0]
		for _, f := range v.Fields.List {
			exported := len(f.Names) == 0 // embedded: keep, name is the type
			for _, n := range f.Names {
				if n.IsExported() {
					exported = true
				}
			}
			if exported {
				f.Doc, f.Comment = nil, nil
				kept = append(kept, f)
			}
		}
		v.Fields.List = kept
	case *ast.InterfaceType:
		kept := v.Methods.List[:0]
		for _, f := range v.Methods.List {
			exported := len(f.Names) == 0
			for _, n := range f.Names {
				if n.IsExported() {
					exported = true
				}
			}
			if exported {
				f.Doc, f.Comment = nil, nil
				kept = append(kept, f)
			}
		}
		v.Methods.List = kept
	}
}

// render prints a node on one logical declaration, comments dropped,
// normalized whitespace.
func render(fset *token.FileSet, n any) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 4}
	if err := cfg.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<render error: %v>", err)
	}
	// Collapse multi-line declarations (struct bodies keep their lines,
	// but trailing whitespace is normalized).
	lines := strings.Split(buf.String(), "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " \t")
	}
	return strings.Join(lines, "\n")
}

// printDiff emits a positional line diff via LCS, so changes whose lines
// also occur elsewhere in the surface (struct closers, repeated field
// shapes) still show up. The golden file is small; O(n*m) is fine.
func printDiff(w *os.File, want, got []string) {
	n, m := len(want), len(got)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if want[i] == got[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case want[i] == got[j]:
			i, j = i+1, j+1
		case lcs[i+1][j] >= lcs[i][j+1]:
			fmt.Fprintf(w, "- %s\n", want[i])
			i++
		default:
			fmt.Fprintf(w, "+ %s\n", got[j])
			j++
		}
	}
	for ; i < n; i++ {
		fmt.Fprintf(w, "- %s\n", want[i])
	}
	for ; j < m; j++ {
		fmt.Fprintf(w, "+ %s\n", got[j])
	}
}
