package msl_test

// FuzzMSLCompile checks the MSL frontend never panics: msl.Compile
// either rejects its input with an error or returns a program that
// verifies. Seeds are the committed MSL backend snapshots. CI runs a
// short -fuzztime smoke; `go test -fuzz FuzzMSLCompile ./internal/msl`
// runs an open-ended campaign.

import (
	"os"
	"path/filepath"
	"testing"

	"shaderopt/internal/msl"
)

func FuzzMSLCompile(f *testing.F) {
	snaps, err := filepath.Glob(filepath.Join("..", "..", "testdata", "snapshots", "*.msl"))
	if err != nil {
		f.Fatal(err)
	}
	if len(snaps) == 0 {
		f.Fatal("no MSL snapshots to seed from")
	}
	for _, path := range snaps {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := msl.Compile(src, "fuzz")
		if err != nil {
			return // rejected inputs just must not panic
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("compiled program invalid: %v\nsource:\n%s\nIR:\n%s", err, src, p)
		}
	})
}
