package core_test

import (
	"runtime"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
)

// heapAfterGC returns the live heap once two collections have run: the
// second also empties the sync.Pool victim caches (the IR chunk pools),
// so what remains is what something still references.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSharedTrieKeepsNoPrograms pins that the cross-shader table holds
// only each transition's outcome (the no-op bit and the child's
// canonical fingerprint), never the intermediate IR: once the walks'
// handles are gone, what the table keeps alive stays under 1 KiB an
// entry. A table that pinned each transition's child program would keep
// kilobytes of instructions per entry.
func TestSharedTrieKeepsNoPrograms(t *testing.T) {
	all := corpus.MustLoad()
	trie := core.NewSharedTrie()
	before := heapAfterGC()
	for i := 0; i < len(all); i += 4 {
		s := all[i]
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			t.Fatal(err)
		}
		h.VariantsSharedT(nil, 1, trie)
	}
	grown := heapAfterGC() - before
	runtime.KeepAlive(all) // the corpus was live at the first reading too
	n := trie.Len()
	if n == 0 {
		t.Fatal("shared table is empty after enumerating a quarter of the corpus")
	}
	perEntry := grown / int64(n)
	t.Logf("%d entries, heap grew %d B (%d B per entry)", n, grown, perEntry)
	if perEntry >= 1024 {
		t.Fatalf("shared table keeps %d B of heap per entry (%d entries, %d B), want under 1 KiB",
			perEntry, n, grown)
	}
}
