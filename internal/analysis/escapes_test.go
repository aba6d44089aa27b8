package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A local handed to an interface method is moved to the heap and no syntax
// says so: RunEscapes must find it in an annotated function, honor the allow
// directive, and leave an unannotated function alone.
func TestRunEscapes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a module with the go command")
	}
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module escapes.test\n\ngo 1.22\n")
	write("p.go", `package p

import "io"

//morph:hotpath
func Hot(r io.Reader) byte {
	var hdr [4]byte
	r.Read(hdr[:])
	return hdr[0]
}

//morph:hotpath
func Allowed(r io.Reader) byte {
	var hdr [4]byte //morphlint:allow hotalloc -- fixture
	r.Read(hdr[:])
	return hdr[0]
}

func Cold(r io.Reader) byte {
	var hdr [4]byte
	r.Read(hdr[:])
	return hdr[0]
}
`)
	var out bytes.Buffer
	n, err := RunEscapes(dir, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !strings.Contains(out.String(), "p.go:7:6: hot path (//morph:hotpath Hot): moved to heap: hdr") {
		t.Fatalf("%d findings, want exactly Hot's hdr:\n%s", n, out.String())
	}
}
