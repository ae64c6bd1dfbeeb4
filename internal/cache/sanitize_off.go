//go:build !texsan

package cache

// This file is the disabled half of the texsan runtime sanitizer; the
// sanitizer proper lives in sanitize_on.go behind the texsan build tag
// (go test -tags texsan ./...). In normal builds every hook below is an
// empty method on an empty struct, the sanitizing guard is a false
// constant, and the hierarchy's hot path pays nothing.

// sanitizing reports whether the texsan invariant sanitizer is compiled in.
const sanitizing = false

// sanState holds the hierarchy-level sanitizer state; empty when disabled.
type sanState struct{}

// sanAccess is the per-access invariant hook; a no-op when disabled.
func (h *Hierarchy) sanAccess(ref Ref, l1Hit bool) {}

// l2San holds the L2-level sanitizer state; empty when disabled.
type l2San struct{}

// noteEvict records a block eviction or deallocation; a no-op when disabled.
func (s *l2San) noteEvict(pt uint32) {}
