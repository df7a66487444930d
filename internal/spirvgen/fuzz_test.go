package spirvgen_test

// FuzzSPIRVDecode checks the decoder never panics on an arbitrary byte
// stream: DecodeBytes either rejects it with an error or returns a
// program that verifies. The decoder is reachable from untrusted input
// through core.ReparseBackend, so a malformed module must be an error,
// not a crash. Seeds are the emitted modules of the corpus shaders;
// crashers the fuzzer found live under testdata/fuzz/FuzzSPIRVDecode.
// CI runs a short -fuzztime smoke; `go test -fuzz FuzzSPIRVDecode
// ./internal/spirvgen` runs an open-ended campaign.

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/spirvgen"
)

func FuzzSPIRVDecode(f *testing.F) {
	for _, sh := range corpus.MustLoad() {
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			f.Fatal(err)
		}
		b, err := spirvgen.EmitBytes(h.IR())
		if err != nil {
			f.Fatalf("%s: %v", sh.Name, err)
		}
		f.Add(b)
	}
	var huge []byte
	for _, w := range hugeBoundModule() {
		huge = binary.LittleEndian.AppendUint32(huge, w)
	}
	f.Add(huge)
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := spirvgen.DecodeBytes(b, "fuzz")
		if err != nil {
			return // rejected modules just must not panic
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("decoded program invalid: %v\nIR:\n%s", err, p)
		}
	})
}

// TestDecodeRejectsMalformedStructure pins the decoder's answers to
// modules whose instructions are too short to carry their operands,
// whose types are out of range, or whose control flow is not
// structured: each must be its own error, never a panic, a huge
// allocation or a walk that does not end.
func TestDecodeRejectsMalformedStructure(t *testing.T) {
	header := []uint32{spirvgen.Magic, spirvgen.Version, spirvgen.Generator, 8, 0}
	inst := func(opcode uint32, operands ...uint32) []uint32 {
		return append([]uint32{uint32(len(operands)+1)<<16 | opcode}, operands...)
	}
	const (
		opTypeVoid    = 19
		opTypeInt     = 21
		opTypeFloat   = 22
		opTypeVector  = 23
		opTypeArray   = 28
		opTypePointer = 32
		opConstant    = 43
		opFunction    = 54
		opFunctionEnd = 56
		opLabel       = 248
		opBranch      = 249
	)
	module := func(parts ...[]uint32) []uint32 {
		w := append([]uint32(nil), header...)
		for _, p := range parts {
			w = append(w, p...)
		}
		return w
	}
	fn := inst(opFunction, 1, 2, 0, 3)
	cases := []struct {
		name, want string
		words      []uint32
	}{
		{"short OpTypeVoid", "want 2 words", module(inst(opTypeVoid))},
		{"short OpTypePointer", "want 4 words", module(inst(opTypeVoid, 1), inst(opTypePointer, 2, 1))},
		{"vector of 5", "bad vector type", module(inst(opTypeFloat, 1, 64), inst(opTypeVector, 2, 1, 5))},
		{"array of 0", "bad array type", module(inst(opTypeInt, 1, 64, 1), inst(opConstant, 1, 2, 0, 0),
			inst(opTypeArray, 3, 1, 2))},
		{"short OpBranch", "want 2 words", module(fn, inst(opLabel, 4), inst(opBranch), inst(opFunctionEnd))},
		{"self branch", "reached twice", module(fn, inst(opLabel, 4), inst(opBranch, 4), inst(opFunctionEnd))},
		{"two-block cycle", "reached twice", module(fn, inst(opLabel, 4), inst(opBranch, 5),
			inst(opLabel, 5), inst(opBranch, 4), inst(opFunctionEnd))},
	}
	for _, c := range cases {
		_, err := spirvgen.Decode(c.words, "bad")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// hugeBoundModule is a well-framed module whose header claims an id bound
// far above its word count.
func hugeBoundModule() []uint32 {
	const opTypeVoid = 19
	return []uint32{spirvgen.Magic, spirvgen.Version, spirvgen.Generator, 1 << 28, 0, 2<<16 | opTypeVoid, 1}
}

// TestDecodeRejectsBoundAboveWordCount checks that the decoder sizes
// nothing from an untrusted id bound: a header bound above the module's
// word count is rejected before any table is made for it.
func TestDecodeRejectsBoundAboveWordCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := spirvgen.Decode(hugeBoundModule(), "bad")
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("got error %v, want one about the id bound", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("rejecting the module allocated %d bytes", n)
	}
}
