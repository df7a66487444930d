package hlsl

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
Texture2D tex : register(t0);
SamplerState smp : register(s0);

cbuffer Params : register(b0) {
    float4 tint;
    float strength;
};

static const float weights[3] = {0.25, 0.5, 0.25};

float luma(float3 c) {
    return dot(c, float3(0.299, 0.587, 0.114));
}

float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float4 c = tex.Sample(smp, uv) * tint;
    float acc = 0.0;
    [unroll] for (int i = 0; i < 3; i++) {
        acc += weights[i] * strength;
    }
    if (luma(c.rgb) < 0.01) {
        discard;
    }
    float3 toned = lerp(c.rgb, float3(acc, acc, acc), 0.5);
    return float4(toned, c.a);
}
`

func TestParseMiniShader(t *testing.T) {
	m := MustParse(miniShader)
	if len(m.Decls) != 6 {
		t.Fatalf("decls = %d, want 6 (tex, smp, cbuffer, weights, luma, main)", len(m.Decls))
	}
	tex, ok := m.Decls[0].(*GlobalVar)
	if !ok || tex.Name != "tex" || tex.Type.Name != "Texture2D" || tex.Register != "t0" {
		t.Errorf("decl 0 = %+v", m.Decls[0])
	}
	cb, ok := m.Decls[2].(*CBufferDecl)
	if !ok || cb.Name != "Params" || cb.Register != "b0" || len(cb.Members) != 2 {
		t.Fatalf("decl 2 = %+v", m.Decls[2])
	}
	if cb.Members[0].Name != "tint" || cb.Members[0].Type.Name != "float4" {
		t.Errorf("cbuffer member 0 = %+v", cb.Members[0])
	}
	w, ok := m.Decls[3].(*GlobalVar)
	if !ok || !w.Static || !w.Const || w.Type.Name != "array" || w.Type.Len != 3 {
		t.Fatalf("decl 3 = %+v", m.Decls[3])
	}
	if _, ok := w.Init.(*bind.InitListExpr); !ok {
		t.Errorf("weights init = %T, want bind.InitListExpr", w.Init)
	}
	entry := m.EntryPoint()
	if entry == nil || entry.Name != "main" {
		t.Fatal("entry point not found")
	}
	if !IsSVTarget(entry.RetSemantic) {
		t.Errorf("entry return semantic = %q", entry.RetSemantic)
	}
	if len(entry.Params) != 1 || entry.Params[0].Semantic != "TEXCOORD0" {
		t.Errorf("entry params = %+v", entry.Params)
	}
}

func TestParseEntryPointSelection(t *testing.T) {
	// SV_Target wins over name; semantics are case-insensitive; a digit
	// selects the render target.
	m := MustParse(`
float4 shade(float2 uv : TEXCOORD0) : sv_target0 { return float4(uv, 0.0, 1.0); }
`)
	if e := m.EntryPoint(); e == nil || e.Name != "shade" {
		t.Fatalf("entry = %+v", m.EntryPoint())
	}
	// Fallback: a function literally named main.
	m = MustParse(`
float4 main(float2 uv : TEXCOORD0) { return float4(uv, 0.0, 1.0); }
`)
	if e := m.EntryPoint(); e == nil || e.Name != "main" {
		t.Fatal("main fallback not found")
	}
	if IsSVTarget("SV_Position") || IsSVTarget("COLOR0") || IsSVTarget("sv_target9") {
		t.Error("IsSVTarget too permissive")
	}
}

func TestParseMethodCall(t *testing.T) {
	m := MustParse(`
Texture2D tex;
SamplerState s;
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    return tex.SampleLevel(s, uv, 2.0);
}
`)
	entry := m.EntryPoint()
	ret := entry.Body.Stmts[0].(*bind.ReturnStmt)
	mc, ok := ret.Result.(*bind.MethodCallExpr)
	if !ok || mc.Method != "SampleLevel" || len(mc.Args) != 3 {
		t.Fatalf("result = %+v", ret.Result)
	}
	if recv, ok := mc.Recv.(*bind.IdentExpr); !ok || recv.Name != "tex" {
		t.Errorf("receiver = %+v", mc.Recv)
	}
}

func TestParseTernaryRightAssociative(t *testing.T) {
	m := MustParse(`
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float x = uv.x > 0.5 ? 1.0 : uv.y > 0.5 ? 0.5 : 0.0;
    return float4(x, x, x, 1.0);
}
`)
	d := m.EntryPoint().Body.Stmts[0].(*bind.DeclStmt)
	outer, ok := d.Init.(*bind.CondExpr)
	if !ok {
		t.Fatalf("init = %T", d.Init)
	}
	if _, ok := outer.Else.(*bind.CondExpr); !ok {
		t.Errorf("ternary not right-associative: else arm = %T", outer.Else)
	}
}

func TestParseUnbracedIfAndAttrs(t *testing.T) {
	m := MustParse(`
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    [branch] if (uv.x > 0.5) discard;
    [loop] for (int i = 0; i < 2; i++) uv.x += 0.1;
    return float4(uv, 0.0, 1.0);
}
`)
	body := m.EntryPoint().Body
	iff, ok := body.Stmts[0].(*bind.IfStmt)
	if !ok || len(iff.Then.Stmts) != 1 {
		t.Fatalf("stmt 0 = %+v", body.Stmts[0])
	}
	if _, ok := iff.Then.Stmts[0].(*bind.DiscardStmt); !ok {
		t.Errorf("unbraced if body = %T", iff.Then.Stmts[0])
	}
	forS, ok := body.Stmts[1].(*bind.ForStmt)
	if !ok {
		t.Fatalf("stmt 1 = %T", body.Stmts[1])
	}
	if _, ok := forS.Init.(*bind.DeclStmt); !ok {
		t.Errorf("for init = %T, want bind.DeclStmt", forS.Init)
	}
	if _, ok := forS.Post.(*bind.AssignStmt); !ok {
		t.Errorf("for post = %T (i++ should desugar to +=)", forS.Post)
	}
}

func TestParsePrefixIncDec(t *testing.T) {
	// `++i` is as idiomatic as `i++` in for-loop posts; both desugar to
	// the same compound assignment, keeping the canonical counted shape
	// the Unroll pass recognizes.
	m := MustParse(`
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float acc = 0.0;
    for (int i = 0; i < 4; ++i) {
        acc += 0.1;
    }
    int j = 4;
    --j;
    return float4(acc, float(j), 0.0, 1.0);
}
`)
	body := m.EntryPoint().Body
	forS := body.Stmts[1].(*bind.ForStmt)
	post, ok := forS.Post.(*bind.AssignStmt)
	if !ok || post.Op != "+=" {
		t.Fatalf("for post = %+v, want += desugar of ++i", forS.Post)
	}
	dec, ok := body.Stmts[3].(*bind.AssignStmt)
	if !ok || dec.Op != "-=" {
		t.Fatalf("stmt 3 = %+v, want -= desugar of --j", body.Stmts[3])
	}
}

func TestParseTextureTemplate(t *testing.T) {
	m := MustParse(`
Texture2D<float4> tex : register(t3);
SamplerState s;
float4 main(float2 uv : TEXCOORD0) : SV_Target { return tex.Sample(s, uv); }
`)
	g := m.Decls[0].(*GlobalVar)
	if g.Type.Name != "Texture2D" || g.Type.Elem == nil || g.Type.Elem.Name != "float4" || g.Register != "t3" {
		t.Errorf("templated texture = %+v", g.Type)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"struct unsupported", `struct VSOut { float4 pos; };`},
		{"unterminated cbuffer", `cbuffer B { float x;`},
		{"bad array len", `static const float w[x] = {1.0};`},
		{"missing paren", `float f(float x { return x; }`},
		{"garbage", `float4 main() : SV_Target { return &&& ; }`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: parsed successfully, want error", c.name)
		}
	}
}

func TestParseRecoversAndReportsFirstError(t *testing.T) {
	_, err := Parse(`
float4 main() : SV_Target {
    float x = ;
    float y = 1.0;
    return float4(y, y, y, 1.0);
}
`)
	if err == nil {
		t.Fatal("expected error")
	}
}
