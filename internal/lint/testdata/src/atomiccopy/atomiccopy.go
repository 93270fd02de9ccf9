// Package atomiccopy exercises the atomiccopy analyzer: by-value copies
// of structs carrying sync/atomic fields (directly, transitively, or
// via generic atomic.Pointer) are findings; pointers and fresh
// composite literals are not.
package atomiccopy

import "sync/atomic"

type counter struct {
	hits atomic.Int64
}

type wrapper struct {
	c counter // transitively carries an atomic
}

type snapshot struct {
	p atomic.Pointer[counter] // the generic type vet's copylocks misses
}

var global counter

// copyAssign copies an existing value by assignment.
func copyAssign() {
	c := global // want "assignment copies"
	c.hits.Add(1)
}

func take(counter) {}

// copyArg passes a transitively atomic-carrying field by value.
func copyArg(w *wrapper) {
	take(w.c) // want "argument copies"
}

// copyReturn returns one by value.
func copyReturn(w *wrapper) counter {
	return w.c // want "return copies"
}

// copyIndex copies out of a slice by value.
func copyIndex(list []counter) counter {
	return list[0] // want "return copies"
}

// copyRange ranges over values of a generic-atomic-carrying type.
func copyRange(list []snapshot) {
	for _, s := range list { // want "range copies"
		s.p.Load()
	}
}

// ptrOK moves pointers around — clean.
func ptrOK() *counter {
	c := &global
	return c
}

// freshOK returns a fresh composite literal — clean.
func freshOK() counter {
	return counter{}
}

// newOK allocates a fresh zero value: new's argument is a type, not a
// value being copied — clean. The by-value argument beside it is still
// a finding.
func newOK() *counter {
	c := new(counter)
	take(*c) // want "argument copies"
	return c
}
