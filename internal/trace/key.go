package trace

import (
	"sync"

	"sparsedysta/internal/sparsity"
)

// Key identifies one model-pattern pair, the granularity at which the
// paper stores LUT entries and runtime-info files. A Key is one machine
// word: a handle to an immutable record that NewKey interns in a
// process-wide table, so two keys of the same pair are equal, comparing
// keys compares one pointer, and a StatsSet finds a key's entry by the
// key's dense index instead of hashing a model name. The zero Key is the
// pair of the empty model name and the Dense pattern, which NewKey
// returns for that pair.
type Key struct{ rec *keyRecord }

// keyPair is a model-pattern pair, the intern table's lookup key.
type keyPair struct {
	model   string
	pattern sparsity.Pattern
}

// keyRecord is an interned pair and its dense index.
type keyRecord struct {
	keyPair
	// index is 1, 2, ... in interning order; the zero Key has index 0.
	index int
}

// interned is the process-wide intern table. Records are never freed:
// the table holds one record per distinct pair ever interned. Interning
// happens at set-up (scenario entries, trace files, tests); nothing on
// the per-request path takes the lock.
var interned struct {
	sync.Mutex
	byPair map[keyPair]*keyRecord
}

// NewKey returns the key of a model-pattern pair, interning the pair on
// its first use. It is safe for concurrent use.
func NewKey(model string, pattern sparsity.Pattern) Key {
	if model == "" && pattern == sparsity.Dense {
		return Key{}
	}
	p := keyPair{model, pattern}
	interned.Lock()
	defer interned.Unlock()
	rec := interned.byPair[p]
	if rec == nil {
		if interned.byPair == nil {
			interned.byPair = map[keyPair]*keyRecord{}
		}
		rec = &keyRecord{keyPair: p, index: len(interned.byPair) + 1}
		interned.byPair[p] = rec
	}
	return Key{rec}
}

// Model returns the key's model name.
func (k Key) Model() string {
	if k.rec == nil {
		return ""
	}
	return k.rec.model
}

// Pattern returns the key's weight-sparsity pattern.
func (k Key) Pattern() sparsity.Pattern {
	if k.rec == nil {
		return sparsity.Dense
	}
	return k.rec.pattern
}

// index returns the key's dense index.
func (k Key) index() int {
	if k.rec == nil {
		return 0
	}
	return k.rec.index
}

// String renders the key as model/pattern.
func (k Key) String() string { return k.Model() + "/" + k.Pattern().String() }
