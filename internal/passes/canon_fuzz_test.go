package passes_test

// FuzzCanonicalize checks the two properties every caller of Canonicalize
// relies on, for anything core.Compile accepts: the result verifies, and
// it is a fixed point — canonicalizing again prints the same program
// (the driver pipeline skips its opening canonicalization on that
// promise). Seeds are the corpus sources and the MSL backend snapshots.
// CI runs a short -fuzztime smoke; `go test -fuzz FuzzCanonicalize
// ./internal/passes` runs an open-ended campaign.

import (
	"os"
	"path/filepath"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/passes"
)

func FuzzCanonicalize(f *testing.F) {
	shaders, err := corpus.Load()
	if err != nil {
		f.Fatal(err)
	}
	for _, sh := range shaders {
		f.Add(sh.Source)
	}
	snaps, err := filepath.Glob(filepath.Join("..", "..", "testdata", "snapshots", "*.msl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range snaps {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		h, err := core.Compile(src, "fuzz", core.LangAuto)
		if err != nil {
			return // rejected inputs just must not panic
		}
		p := h.IR()
		passes.Canonicalize(p)
		if err := p.Verify(); err != nil {
			t.Fatalf("canonical IR invalid: %v\nsource:\n%s\nIR:\n%s", err, src, p)
		}
		once := p.String()
		passes.Canonicalize(p)
		if twice := p.String(); twice != once {
			t.Fatalf("Canonicalize is not idempotent\nsource:\n%s\nonce:\n%s\ntwice:\n%s", src, once, twice)
		}
	})
}
