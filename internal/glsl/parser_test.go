package glsl

import (
	"strings"
	"testing"
	"testing/quick"

	"shaderopt/internal/lex"
)

const blurShader = `#version 330
out vec4 fragColor;
in vec2 uv;
uniform sampler2D tex;
uniform vec4 ambient;
void main() {
    const vec4 weights[9] = vec4[](vec4(0.01), vec4(0.05), vec4(0.14),
        vec4(0.21), vec4(0.61), vec4(0.21), vec4(0.14), vec4(0.05), vec4(0.01));
    const vec2 offsets[9] = vec2[](vec2(-0.0083), vec2(-0.0062), vec2(-0.0042),
        vec2(-0.0021), vec2(0.0), vec2(0.0021), vec2(0.0042), vec2(0.0062), vec2(0.0083));
    float weightTotal = 0.0;
    fragColor = vec4(0.0);
    for (int i = 0; i < 9; i++) {
        weightTotal += weights[i][0];
        fragColor += weights[i] * texture(tex, uv + offsets[i]) * 3.0 * ambient;
    }
    fragColor /= weightTotal;
}
`

func TestParseBlurShader(t *testing.T) {
	sh, err := Parse(blurShader)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Version != "330" {
		t.Errorf("version = %q", sh.Version)
	}
	if got := len(sh.Globals()); got != 4 {
		t.Errorf("globals = %d, want 4", got)
	}
	mainFn := sh.Func("main")
	if mainFn == nil {
		t.Fatal("no main")
	}
	if len(mainFn.Body.Stmts) != 6 {
		t.Errorf("main stmts = %d, want 6", len(mainFn.Body.Stmts))
	}
	forStmt, ok := mainFn.Body.Stmts[4].(*ForStmt)
	if !ok {
		t.Fatalf("stmt 4 is %T, want *ForStmt", mainFn.Body.Stmts[4])
	}
	if forStmt.Post == nil || forStmt.Cond == nil || forStmt.Init == nil {
		t.Error("for parts missing")
	}
	post, ok := forStmt.Post.(*AssignStmt)
	if !ok || post.Op != "+=" {
		t.Errorf("i++ should parse to AssignStmt{+=}, got %#v", forStmt.Post)
	}
}

func TestParseQualifiers(t *testing.T) {
	src := `#version 330
layout(location = 0) out vec4 color;
uniform highp float scale;
flat in int mode;
const float PI = 3.14159;
void main() { color = vec4(scale); }
`
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := sh.Globals()
	if g[0].Qual != QualOut || g[0].Layout == "" {
		t.Errorf("g0 = %+v", g[0])
	}
	if g[1].Qual != QualUniform || g[1].Precision != "highp" {
		t.Errorf("g1 = %+v", g[1])
	}
	if g[2].Qual != QualIn {
		t.Errorf("g2 = %+v", g[2])
	}
	if g[3].Qual != QualConst || g[3].Init == nil {
		t.Errorf("g3 = %+v", g[3])
	}
}

func TestParsePrecisionDecl(t *testing.T) {
	src := "precision mediump float;\nvoid main() {}\n"
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pd, ok := sh.Decls[0].(*PrecisionDecl)
	if !ok || pd.Precision != "mediump" || pd.Type != "float" {
		t.Fatalf("decl = %#v", sh.Decls[0])
	}
}

func TestParseFunctions(t *testing.T) {
	src := `
float sq(float x) { return x * x; }
vec3 shade(vec3 n, vec3 l, float k) {
    float d = max(dot(n, l), 0.0);
    return vec3(d * k);
}
void main() { }
`
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fns := sh.Funcs()
	if len(fns) != 3 {
		t.Fatalf("funcs = %d", len(fns))
	}
	if fns[1].Name != "shade" || len(fns[1].Params) != 3 {
		t.Errorf("shade = %+v", fns[1])
	}
}

func TestParsePrototypeAndVoidParam(t *testing.T) {
	src := "float f(void);\nfloat f(void) { return 1.0; }\nvoid main() {}\n"
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fns := sh.Funcs()
	if len(fns) != 3 {
		t.Fatalf("funcs = %d", len(fns))
	}
	if fns[0].Body != nil {
		t.Error("prototype should have nil body")
	}
	if len(fns[0].Params) != 0 || len(fns[1].Params) != 0 {
		t.Error("void params should be dropped")
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
void main() {
    float x = 0.0;
    if (x > 1.0) { x = 2.0; } else if (x > 0.5) { x = 1.0; } else { x = 0.0; }
    while (x < 10.0) { x += 1.0; }
    for (int i = 0; i < 4; i += 2) x += float(i);
    if (x > 100.0) discard;
}
`
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := sh.Func("main").Body
	ifs, ok := body.Stmts[1].(*IfStmt)
	if !ok {
		t.Fatalf("stmt1 = %T", body.Stmts[1])
	}
	chained, ok := ifs.Else.(*IfStmt)
	if !ok {
		t.Fatalf("else = %T", ifs.Else)
	}
	if _, ok := chained.Else.(*BlockStmt); !ok {
		t.Fatalf("chained else = %T", chained.Else)
	}
	if _, ok := body.Stmts[2].(*WhileStmt); !ok {
		t.Fatalf("stmt2 = %T", body.Stmts[2])
	}
	fs, ok := body.Stmts[3].(*ForStmt)
	if !ok {
		t.Fatalf("stmt3 = %T", body.Stmts[3])
	}
	if len(fs.Body.Stmts) != 1 {
		t.Error("single-statement for body should be wrapped in a block")
	}
	lastIf, ok := body.Stmts[4].(*IfStmt)
	if !ok {
		t.Fatalf("stmt4 = %T", body.Stmts[4])
	}
	if _, ok := lastIf.Then.Stmts[0].(*DiscardStmt); !ok {
		t.Error("discard not parsed")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	src := "void main() { float x = 1.0 + 2.0 * 3.0 - 4.0 / 2.0; }"
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d := sh.Func("main").Body.Stmts[0].(*DeclStmt)
	// ((1 + (2*3)) - (4/2))
	top, ok := d.Init.(*BinaryExpr)
	if !ok || top.Op != "-" {
		t.Fatalf("top = %#v", d.Init)
	}
	add, ok := top.X.(*BinaryExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("lhs = %#v", top.X)
	}
	mul, ok := add.Y.(*BinaryExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("add rhs = %#v", add.Y)
	}
	div, ok := top.Y.(*BinaryExpr)
	if !ok || div.Op != "/" {
		t.Fatalf("top rhs = %#v", top.Y)
	}
}

func TestParseTernaryAndLogical(t *testing.T) {
	src := "void main() { float x = a > 0.0 && b < 1.0 ? c : d; }"
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d := sh.Func("main").Body.Stmts[0].(*DeclStmt)
	cond, ok := d.Init.(*CondExpr)
	if !ok {
		t.Fatalf("init = %#v", d.Init)
	}
	land, ok := cond.Cond.(*BinaryExpr)
	if !ok || land.Op != "&&" {
		t.Fatalf("cond = %#v", cond.Cond)
	}
}

func TestParseSwizzleIndexChain(t *testing.T) {
	src := "void main() { float x = m[2].xyz.y; }"
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d := sh.Func("main").Body.Stmts[0].(*DeclStmt)
	f1, ok := d.Init.(*FieldExpr)
	if !ok || f1.Name != "y" {
		t.Fatalf("init = %#v", d.Init)
	}
	f2, ok := f1.X.(*FieldExpr)
	if !ok || f2.Name != "xyz" {
		t.Fatalf("inner = %#v", f1.X)
	}
	if _, ok := f2.X.(*IndexExpr); !ok {
		t.Fatalf("base = %#v", f2.X)
	}
}

func TestParseArrayCtor(t *testing.T) {
	src := "void main() { float w[3] = float[](0.1, 0.2, 0.3); vec2 o[2] = vec2[2](vec2(0.0), vec2(1.0)); }"
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d0 := sh.Func("main").Body.Stmts[0].(*DeclStmt)
	ac, ok := d0.Init.(*ArrayCtorExpr)
	if !ok || ac.Len != 3 || len(ac.Elems) != 3 {
		t.Fatalf("ctor = %#v", d0.Init)
	}
	d1 := sh.Func("main").Body.Stmts[1].(*DeclStmt)
	ac1, ok := d1.Init.(*ArrayCtorExpr)
	if !ok || ac1.Len != 2 || ac1.Elem.Name != "vec2" {
		t.Fatalf("ctor1 = %#v", d1.Init)
	}
}

func TestParseCompoundAssignOps(t *testing.T) {
	src := "void main() { x += 1.0; y -= 2.0; z *= 3.0; w /= 4.0; v.x = 5.0; }"
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ops := []string{"+=", "-=", "*=", "/=", "="}
	for i, want := range ops {
		as, ok := sh.Func("main").Body.Stmts[i].(*AssignStmt)
		if !ok || as.Op != want {
			t.Errorf("stmt %d: %#v", i, sh.Func("main").Body.Stmts[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"void main() { float = 1.0; }",
		"void main() { if x { } }",
		"void main() { return 1.0 }",
		"banana main() {}",
		"void main() { x = (1.0; }",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseUnterminatedCall(t *testing.T) {
	if _, err := Parse("void main() { x = f(1.0, 2.0; }"); err == nil {
		t.Fatal("want error")
	}
}

// TestPrintParseRoundTrip checks that printing a parsed shader and parsing
// it again yields the same printed form (print∘parse is idempotent).
func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{blurShader, `
#version 330
uniform sampler2D albedo;
uniform vec3 lightDir;
in vec2 uv;
in vec3 normal;
out vec4 color;
float lambert(vec3 n, vec3 l) { return max(dot(normalize(n), l), 0.0); }
void main() {
    vec4 base = texture(albedo, uv);
    float d = lambert(normal, lightDir);
    color = d > 0.5 ? base * d : base * 0.5;
    color.a = 1.0;
}
`}
	for i, src := range srcs {
		sh, err := Parse(src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		once := Print(sh)
		sh2, err := Parse(once)
		if err != nil {
			t.Fatalf("case %d reparse: %v\n%s", i, err, once)
		}
		twice := Print(sh2)
		if once != twice {
			t.Errorf("case %d: print not idempotent:\n--- once ---\n%s\n--- twice ---\n%s", i, once, twice)
		}
	}
}

// TestFormatFloatRoundTrip property: formatted floats re-lex as a single
// float token and parse back to the same value.
func TestFormatFloatRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		s := FormatFloat(v)
		toks, err := LexAll(s)
		if err != nil {
			return false
		}
		// Negative values lex as '-' followed by a literal.
		idx := 0
		neg := false
		if toks[0].Kind == lex.Punct && toks[0].Text == "-" {
			neg = true
			idx = 1
		}
		if len(toks) != idx+1 || toks[idx].Kind != lex.FloatLit {
			return false
		}
		sh, err := Parse("void main() { float x = " + s + "; }")
		if err != nil {
			return false
		}
		init := sh.Func("main").Body.Stmts[0].(*DeclStmt).Init
		var got float64
		switch e := init.(type) {
		case *FloatLitExpr:
			got = e.Value
		case *UnaryExpr:
			got = -e.X.(*FloatLitExpr).Value
		default:
			return false
		}
		_ = neg
		return got == v
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(v float64) bool {
		if v != v || v > 1e37 || v < -1e37 { // skip NaN / out-of-GLSL-range
			return true
		}
		return f(v)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestCountLines(t *testing.T) {
	sh := MustParse(blurShader)
	n := CountLines(sh)
	// 2 const arrays + 2 decls + assignment + for + 2 loop body + final: 8-ish
	if n < 6 || n > 12 {
		t.Errorf("CountLines = %d, want around 8", n)
	}
}

func TestCountLinesIgnoresInterface(t *testing.T) {
	sh := MustParse(`#version 330
uniform vec4 u0;
uniform vec4 u1;
in vec2 uv;
out vec4 c;
void main() { c = u0 + u1; }
`)
	if n := CountLines(sh); n != 1 {
		t.Errorf("CountLines = %d, want 1", n)
	}
}

func TestTypeSpecString(t *testing.T) {
	if got := Scalar("vec3").String(); got != "vec3" {
		t.Error(got)
	}
	if got := (TypeSpec{Name: "float", ArrayLen: 4}).String(); got != "float[4]" {
		t.Error(got)
	}
	if got := (TypeSpec{Name: "float", ArrayLen: 0}).String(); got != "float[]" {
		t.Error(got)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("not a shader @@@")
}

func TestExprString(t *testing.T) {
	src := "void main() { x = (a + b) * c - d / (e - f); }"
	sh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	as := sh.Func("main").Body.Stmts[0].(*AssignStmt)
	got := ExprString(as.RHS)
	want := "(a + b) * c - d / (e - f)"
	if got != want {
		t.Errorf("ExprString = %q, want %q", got, want)
	}
	if !strings.Contains(Print(sh), want) {
		t.Error("Print should contain canonical expression")
	}
}
