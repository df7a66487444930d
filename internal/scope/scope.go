// Package scope is the block-scoped name table of the semantic checker,
// the lowering and the binder: nested scopes held in one flat map with an
// undo journal, so opening a scope is a mark and closing one rolls the
// journal back to it. No scope allocates a map of its own, and a table
// kept for the next call (Reset) keeps its map's storage.
package scope

import "sync"

// Table maps names to values of type V through a stack of nested scopes:
// Lookup finds the innermost binding of a name. The zero Table is empty
// and ready to use.
type Table[V any] struct {
	m     map[string]entry[V]
	undo  []undone[V]
	marks []int // journal length at each open scope
	floor int   // bindings made at a depth below floor are hidden
}

// entry is a binding and the scope depth it was made at.
type entry[V any] struct {
	v     V
	depth int
}

// undone is one journalled prior state: name was bound to old (had) or
// unbound.
type undone[V any] struct {
	name string
	old  entry[V]
	had  bool
}

// Push opens a scope.
func (t *Table[V]) Push() { t.marks = append(t.marks, len(t.undo)) }

// Pop closes the innermost scope, restoring every binding it shadowed.
func (t *Table[V]) Pop() {
	n := len(t.marks) - 1
	t.rollback(t.marks[n])
	t.marks = t.marks[:n]
}

// Bind binds name to v in the innermost scope.
func (t *Table[V]) Bind(name string, v V) {
	if t.m == nil {
		t.m = map[string]entry[V]{}
	}
	old, had := t.m[name]
	t.undo = append(t.undo, undone[V]{name, old, had})
	t.m[name] = entry[V]{v, len(t.marks)}
}

// Lookup returns the innermost visible binding of name.
func (t *Table[V]) Lookup(name string) (V, bool) {
	e, ok := t.m[name]
	if !ok || e.depth < t.floor {
		var zero V
		return zero, false
	}
	return e.v, true
}

// Hide makes every binding of the open scopes invisible until Unhide, as
// a function body inlined at a call sees none of its caller's locals. It
// returns what Unhide restores.
func (t *Table[V]) Hide() int {
	floor := t.floor
	t.floor = len(t.marks) + 1
	return floor
}

// Unhide ends the Hide that returned floor. The scopes opened since must
// be closed.
func (t *Table[V]) Unhide(floor int) { t.floor = floor }

// Pool holds emptied tables, so a call takes the map of an earlier one.
// The zero Pool is ready to use.
type Pool[V any] struct{ p sync.Pool }

// Get returns an empty table.
func (p *Pool[V]) Get() *Table[V] {
	if t, ok := p.p.Get().(*Table[V]); ok {
		return t
	}
	return new(Table[V])
}

// Put empties t and keeps it for a later Get. t must not be used
// afterwards.
func (p *Pool[V]) Put(t *Table[V]) {
	t.Reset()
	p.p.Put(t)
}

// Reset empties the table, closing any scope left open, and keeps its
// storage for the next use.
func (t *Table[V]) Reset() {
	t.rollback(0)
	clear(t.undo[:cap(t.undo)])
	t.marks = t.marks[:0]
	t.floor = 0
}

func (t *Table[V]) rollback(mark int) {
	for i := len(t.undo) - 1; i >= mark; i-- {
		u := t.undo[i]
		if u.had {
			t.m[u.name] = u.old
		} else {
			delete(t.m, u.name)
		}
	}
	t.undo = t.undo[:mark]
}
