package wgsl

import (
	"testing"

	"shaderopt/internal/bind"
)

// MustParse parses src and panics on error.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

const miniShader = `
@group(0) @binding(0) var tex: texture_2d<f32>;
@group(0) @binding(1) var samp: sampler;
var<uniform> tint: vec4<f32>;

fn luma(c: vec3<f32>) -> f32 {
    return dot(c, vec3<f32>(0.299, 0.587, 0.114));
}

@fragment
fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    var acc = vec4<f32>(0.0);
    for (var i = 0; i < 4; i++) {
        acc += textureSample(tex, samp, uv) * 0.25;
    }
    let l = luma(acc.rgb);
    if (l < 0.1) {
        discard;
    }
    return acc * tint;
}
`

func TestParseModuleShape(t *testing.T) {
	m := MustParse(miniShader)
	if len(m.Decls) != 5 {
		t.Fatalf("decls = %d, want 5", len(m.Decls))
	}
	fns := m.Fns()
	if len(fns) != 2 || fns[0].Name != "luma" || fns[1].Name != "main" {
		t.Fatalf("fns = %v", fns)
	}
	ep := m.EntryPoint()
	if ep == nil || ep.Name != "main" {
		t.Fatal("no @fragment entry point found")
	}
	if ep.Ret == nil || ep.Ret.Name != "vec4" || ep.Ret.Elem.Name != "f32" {
		t.Fatalf("entry return = %v", ep.Ret)
	}
	if a, ok := FindAttr(ep.RetAttrs, "location"); !ok || len(a.Args) != 1 || a.Args[0] != "0" {
		t.Fatalf("entry return attrs = %v", ep.RetAttrs)
	}
}

func TestParseGlobalVars(t *testing.T) {
	m := MustParse(miniShader)
	g0, ok := m.Decls[0].(*GlobalVar)
	if !ok || g0.Name != "tex" || g0.Type.Name != "texture_2d" || g0.Type.Elem.Name != "f32" {
		t.Fatalf("decl 0 = %#v", m.Decls[0])
	}
	if a, ok := FindAttr(g0.Attrs, "binding"); !ok || a.Args[0] != "0" {
		t.Fatalf("tex attrs = %v", g0.Attrs)
	}
	g2, ok := m.Decls[2].(*GlobalVar)
	if !ok || g2.AddressSpace != "uniform" || g2.Name != "tint" {
		t.Fatalf("decl 2 = %#v", m.Decls[2])
	}
}

func TestParseEntryParams(t *testing.T) {
	m := MustParse(miniShader)
	ep := m.EntryPoint()
	if len(ep.Params) != 1 {
		t.Fatalf("params = %v", ep.Params)
	}
	p := ep.Params[0]
	if p.Name != "uv" || p.Type.Name != "vec2" {
		t.Fatalf("param = %#v", p)
	}
	if a, ok := FindAttr(p.Attrs, "location"); !ok || a.Args[0] != "0" {
		t.Fatalf("param attrs = %v", p.Attrs)
	}
}

func TestParseForLoopHeader(t *testing.T) {
	m := MustParse(miniShader)
	body := m.EntryPoint().Body
	f, ok := body.Stmts[1].(*bind.ForStmt)
	if !ok {
		t.Fatalf("stmt 1 = %#v", body.Stmts[1])
	}
	if d, ok := f.Init.(*bind.DeclStmt); !ok || d.Const {
		t.Errorf("for init = %#v", f.Init)
	}
	cond, ok := f.Cond.(*bind.BinaryExpr)
	if !ok || cond.Op != "<" {
		t.Errorf("for cond = %#v", f.Cond)
	}
	post, ok := f.Post.(*bind.AssignStmt)
	if !ok || post.Op != "+=" {
		t.Errorf("i++ should desugar to +=, got %#v", f.Post)
	}
}

func TestParseLetAndSwizzle(t *testing.T) {
	m := MustParse(miniShader)
	body := m.EntryPoint().Body
	let, ok := body.Stmts[2].(*bind.DeclStmt)
	if !ok || !let.Const || let.Name != "l" || let.Type != nil {
		t.Fatalf("stmt 2 = %#v", body.Stmts[2])
	}
	call, ok := let.Init.(*bind.CallExpr)
	if !ok || call.Callee != "luma" {
		t.Fatalf("let init = %#v", let.Init)
	}
	mem, ok := call.Args[0].(*bind.MemberExpr)
	if !ok || mem.Name != "rgb" {
		t.Fatalf("arg = %#v", call.Args[0])
	}
}

func TestParseIfWithoutParens(t *testing.T) {
	m := MustParse(`
@fragment fn main() -> @location(0) vec4<f32> {
    var x = 1.0;
    if x > 0.5 { x = 0.0; } else if x > 0.25 { x = 0.1; } else { x = 0.2; }
    return vec4<f32>(x);
}`)
	body := m.EntryPoint().Body
	ifs, ok := body.Stmts[1].(*bind.IfStmt)
	if !ok {
		t.Fatalf("stmt 1 = %#v", body.Stmts[1])
	}
	chained, ok := ifs.Else.(*bind.IfStmt)
	if !ok {
		t.Fatalf("else = %#v", ifs.Else)
	}
	if _, ok := chained.Else.(*bind.BlockStmt); !ok {
		t.Fatalf("final else = %#v", chained.Else)
	}
}

func TestParseTemplatedArrayConstructor(t *testing.T) {
	m := MustParse(`
@fragment fn main() -> @location(0) vec4<f32> {
    let wts = array<f32, 3>(0.25, 0.5, 0.25);
    return vec4<f32>(wts[1]);
}`)
	body := m.EntryPoint().Body
	let := body.Stmts[0].(*bind.DeclStmt)
	call, ok := let.Init.(*bind.CallExpr)
	if !ok || call.TypeArg == nil {
		t.Fatalf("init = %#v", let.Init)
	}
	if call.TypeArg.Name != "array" || call.TypeArg.Elem.Name != "f32" || call.TypeArg.Len != 3 {
		t.Fatalf("type arg = %v", call.TypeArg)
	}
	if len(call.Args) != 3 {
		t.Fatalf("args = %d", len(call.Args))
	}
}

func TestParseTemplatedLessThanAmbiguity(t *testing.T) {
	// `a < b` must stay a comparison even though `vec2<f32>` is a template.
	m := MustParse(`
@fragment fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    var x = 0.0;
    if (uv.x < uv.y) { x = 1.0; }
    return vec4<f32>(x);
}`)
	body := m.EntryPoint().Body
	ifs := body.Stmts[1].(*bind.IfStmt)
	cond, ok := ifs.Cond.(*bind.BinaryExpr)
	if !ok || cond.Op != "<" {
		t.Fatalf("cond = %#v", ifs.Cond)
	}
}

func TestParseMatPrefixedIdentComparison(t *testing.T) {
	// A variable merely starting with "mat" followed by '<' is a
	// comparison, not a templated constructor.
	m := MustParse(`
@fragment fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    let matte = uv.x;
    var c = 0.0;
    if (matte < 0.5) { c = 1.0; }
    let mm = mat2x2<f32>(1.0, 0.0, 0.0, 1.0);
    return vec4<f32>(c * mm[0].x);
}`)
	body := m.EntryPoint().Body
	ifs, ok := body.Stmts[2].(*bind.IfStmt)
	if !ok {
		t.Fatalf("stmt 2 = %#v", body.Stmts[2])
	}
	cond, ok := ifs.Cond.(*bind.BinaryExpr)
	if !ok || cond.Op != "<" {
		t.Fatalf("cond = %#v", ifs.Cond)
	}
	ctor := body.Stmts[3].(*bind.DeclStmt).Init.(*bind.CallExpr)
	if ctor.TypeArg == nil || ctor.TypeArg.Name != "mat2x2" {
		t.Fatalf("mat ctor = %#v", ctor)
	}
}

func TestParsePrecedence(t *testing.T) {
	m := MustParse(`
@fragment fn main() -> @location(0) vec4<f32> {
    let x = 1.0 + 2.0 * 3.0;
    return vec4<f32>(x);
}`)
	let := m.EntryPoint().Body.Stmts[0].(*bind.DeclStmt)
	add, ok := let.Init.(*bind.BinaryExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("top op = %#v", let.Init)
	}
	mul, ok := add.Y.(*bind.BinaryExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("rhs = %#v", add.Y)
	}
}

func TestParseModuleConst(t *testing.T) {
	m := MustParse(`
const gamma = 2.2;
const weights: vec3<f32> = vec3<f32>(0.299, 0.587, 0.114);
@fragment fn main() -> @location(0) vec4<f32> {
    return vec4<f32>(gamma);
}`)
	c0, ok := m.Decls[0].(*ConstDecl)
	if !ok || c0.Name != "gamma" || c0.Type != nil {
		t.Fatalf("decl 0 = %#v", m.Decls[0])
	}
	c1, ok := m.Decls[1].(*ConstDecl)
	if !ok || c1.Type == nil || c1.Type.Name != "vec3" {
		t.Fatalf("decl 1 = %#v", m.Decls[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"fn f( { }",                            // bad parameter list
		"@fragment fn main() -> { }",           // missing return type
		"var x y;",                             // junk after name
		"fn f() { let = 3; }",                  // missing binding name
		"struct S { a: f32 }",                  // structs outside the subset
		"fn f() { for (var i = 0 i < 4;) {} }", // missing semicolon
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseWhileAndBreak(t *testing.T) {
	m := MustParse(`
@fragment fn main() -> @location(0) vec4<f32> {
    var x = 0.0;
    while (x < 1.0) {
        x += 0.25;
        if (x > 0.8) { break; }
    }
    return vec4<f32>(x);
}`)
	body := m.EntryPoint().Body
	w, ok := body.Stmts[1].(*bind.WhileStmt)
	if !ok {
		t.Fatalf("stmt 1 = %#v", body.Stmts[1])
	}
	inner := w.Body.Stmts[1].(*bind.IfStmt)
	if _, ok := inner.Then.Stmts[0].(*bind.BreakStmt); !ok {
		t.Fatalf("break not parsed: %#v", inner.Then.Stmts[0])
	}
}
