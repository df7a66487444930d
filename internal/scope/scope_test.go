package scope

import "testing"

func TestTableScopes(t *testing.T) {
	var tab Table[int]
	want := func(name string, v int, ok bool) {
		t.Helper()
		if got, gotOK := tab.Lookup(name); got != v || gotOK != ok {
			t.Fatalf("Lookup(%q) = %d, %v; want %d, %v", name, got, gotOK, v, ok)
		}
	}
	tab.Push()
	tab.Bind("x", 1)
	tab.Push()
	tab.Bind("x", 2) // shadows
	tab.Bind("x", 3) // rebinds in the same scope
	tab.Bind("y", 4)
	want("x", 3, true)
	tab.Pop()
	want("x", 1, true)
	want("y", 0, false)

	// An inlined body sees none of the open scopes' names, then they
	// come back.
	floor := tab.Hide()
	want("x", 0, false)
	tab.Push()
	tab.Bind("x", 5)
	want("x", 5, true)
	tab.Pop()
	tab.Unhide(floor)
	want("x", 1, true)

	// Reset closes what is left open and empties the map.
	tab.Push()
	tab.Bind("z", 6)
	tab.Reset()
	if len(tab.m) != 0 || len(tab.undo) != 0 || len(tab.marks) != 0 {
		t.Fatalf("Reset left %d names, %d journal entries, %d scopes", len(tab.m), len(tab.undo), len(tab.marks))
	}
	want("x", 0, false)
	tab.Push()
	tab.Bind("x", 7)
	want("x", 7, true)
}
