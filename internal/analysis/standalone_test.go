package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestParseVetOutput: go vet's stderr is sorted into findings and
// everything else. A "# pkg" header annotates the findings after it and is
// dropped; a finding's path under the working directory is made relative;
// a line that is not a finding — a type-check error, a bad pattern — lands
// in other, which makes RunStandalone exit 1 rather than look clean.
func TestParseVetOutput(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	under := filepath.Join(cwd, "sub", "x.go")
	outside := filepath.Join(filepath.Dir(cwd), "elsewhere", "y.go")
	for _, tc := range []struct {
		name  string
		out   string
		diags []string
		other []string
	}{
		{
			name: "header dropped",
			out:  "# example.com/p\n",
		},
		{
			name:  "finding under the working directory made relative",
			out:   "# example.com/p\n" + under + ":3:7: key material flows into fmt.Println [keytaint]\n",
			diags: []string{"sub/x.go:3:7: key material flows into fmt.Println [keytaint]"},
		},
		{
			name:  "finding outside the working directory kept absolute",
			out:   outside + ":1:2: n is 64 [cachelineinv]\n",
			diags: []string{outside + ":1:2: n is 64 [cachelineinv]"},
		},
		{
			name:  "relative finding kept as it is",
			out:   "sub/x.go:3:7: n is 64 [cachelineinv]\n\n",
			diags: []string{"sub/x.go:3:7: n is 64 [cachelineinv]"},
		},
		{
			name:  "type-check error is not a finding",
			out:   "# example.com/p\n" + under + ":9:1: undefined: zz\n",
			other: []string{under + ":9:1: undefined: zz"},
		},
		{
			name:  "both kinds",
			out:   under + ":3:7: n is 64 [cachelineinv]\ngo: warning: \"./nope/...\" matched no packages\n",
			diags: []string{"sub/x.go:3:7: n is 64 [cachelineinv]"},
			other: []string{`go: warning: "./nope/..." matched no packages`},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diags, other := parseVetOutput(tc.out)
			if !reflect.DeepEqual(diags, tc.diags) || !reflect.DeepEqual(other, tc.other) {
				t.Fatalf("parseVetOutput(%q)\n= diags %q, other %q\nwant diags %q, other %q", tc.out, diags, other, tc.diags, tc.other)
			}
		})
	}
}
