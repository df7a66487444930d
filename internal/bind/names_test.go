package bind

import (
	"testing"

	"shaderopt/internal/sem"
)

func TestRenameEscapesAndMemoizes(t *testing.T) {
	b := New(Lang{Suffix: "_w"})
	if got := b.Rename("scale"); got != "scale" {
		t.Errorf("Rename(scale) = %q, want unchanged", got)
	}
	// Keywords, type names, and builtins all escape with the suffix.
	for _, bad := range []string{"float", "return", "mix"} {
		got := b.Rename(bad)
		if got == bad {
			t.Errorf("Rename(%q) kept an unsafe spelling", bad)
		}
		if got != bad+"_w" {
			t.Errorf("Rename(%q) = %q, want %q", bad, got, bad+"_w")
		}
	}
	// Memoized: the same identifier always gets the same answer.
	if x, y := b.Rename("float"), b.Rename("float"); x != y {
		t.Errorf("Rename not memoized: %q vs %q", x, y)
	}
	// The escaped spelling is reserved, so a source identifier that
	// already spells it moves aside instead of aliasing.
	if got := b.Rename("float_w"); got != "float_w_w" {
		t.Errorf("Rename(float_w) = %q, want float_w_w", got)
	}
}

func TestFreshBypassesRenameMap(t *testing.T) {
	b := New(Lang{Suffix: "_h"}) // reserves main
	if got := b.Fresh("main"); got != "main_h" {
		t.Errorf("Fresh(main) = %q, want main_h", got)
	}
	// Fresh must not poison the rename map: a later source identifier
	// "main" still renames independently (and moves further aside,
	// since Fresh reserved main_h).
	if got := b.Rename("main"); got != "main_h_h" {
		t.Errorf("Rename(main) after Fresh = %q, want main_h_h", got)
	}
	if _, ok := b.names.renames["fragColor"]; ok {
		t.Error("the rename map holds an identifier that was never renamed")
	}
}

func TestLocalDoesNotReserve(t *testing.T) {
	b := New(Lang{Suffix: "_w"})
	b.Rename("acc")
	if got := b.Local("acc"); got != "acc_w" {
		t.Errorf("Local(acc) = %q, want acc_w", got)
	}
	// Locals in sibling scopes share spellings: Local must not reserve.
	if got := b.Local("acc"); got != "acc_w" {
		t.Errorf("second Local(acc) = %q, want acc_w again", got)
	}
}

func TestScopesShadowByOriginalName(t *testing.T) {
	b := New(Lang{Suffix: "_w"})
	b.Bind("color", "color", sem.Vec3)
	b.Push()
	b.Bind("color", "color_w", sem.Float)

	if bd, ok := b.Lookup("color"); !ok || bd.Name != "color_w" || !bd.T.Equal(sem.Float) {
		t.Errorf("inner Lookup(color) = %+v, %v; want the shadowing binding", bd, ok)
	}
	b.Pop()
	if bd, ok := b.Lookup("color"); !ok || bd.Name != "color" || !bd.T.Equal(sem.Vec3) {
		t.Errorf("outer Lookup(color) = %+v, %v; want the module binding", bd, ok)
	}
	if _, ok := b.Lookup("missing"); ok {
		t.Error("Lookup(missing) succeeded")
	}
}
