package mpc

import "testing"

// boxed is a payload that holds a pointer, so a slot left uncleared would
// pin what it references.
type boxed struct {
	p *int
	n int
}

// TestOutboxLifetime pins the payload rule's two ends: what round r sends
// stays as sent through round r+1, whatever round r+1 sends, and the
// first Put of round r+2 reuses round r's slots.
func TestOutboxLifetime(t *testing.T) {
	var o Outbox[boxed]
	x := 7
	const r = 4
	o.Put(r-2, boxed{}) // grow round r's slab to two slots first, so
	o.Put(r-2, boxed{}) // its Puts below keep their addresses
	a := o.Put(r, boxed{p: &x, n: 1})
	b := o.Put(r, boxed{n: 2})
	for i := 0; i < 3; i++ { // round r+1, the other slab
		o.Put(r+1, boxed{n: 10 + i})
	}
	if a.p != &x || a.n != 1 || b.n != 2 {
		t.Fatalf("round %d's payloads changed in round %d: %+v %+v", r, r+1, *a, *b)
	}
	if c := o.Put(r+2, boxed{n: 3}); c != a || a.n != 3 || a.p != nil {
		t.Fatalf("round %d's first Put did not reset round %d's slab: slot %p (first slot %p) holds %+v", r+2, r, c, a, *a)
	}
	if d := o.Put(r+2, boxed{n: 4}); d != b || d.n != 4 {
		t.Fatalf("round %d's second Put got slot %p holding %+v, want %p", r+2, d, *d, b)
	}
}

// TestOutboxResetClears pins the payload-clearing rule on a reset: the
// slots past the new length are zero, so a stale payload pins nothing.
func TestOutboxResetClears(t *testing.T) {
	var o Outbox[boxed]
	x := 1
	for i := 0; i < 5; i++ {
		o.Put(2, boxed{p: &x, n: i})
	}
	o.Put(4, boxed{n: 9})
	s := o.slab[0]
	if len(s) != 1 || cap(s) < 5 {
		t.Fatalf("slab after reset: len %d cap %d, want 1 and ≥ 5", len(s), cap(s))
	}
	for i, v := range s[1:cap(s)] {
		if v != (boxed{}) {
			t.Errorf("slot %d past len after reset holds %+v", 1+i, v)
		}
	}
}

// TestOutboxSteadyPutsAllocateNothing pins what the slabs are for: once
// both have grown, a round's sends allocate nothing.
func TestOutboxSteadyPutsAllocateNothing(t *testing.T) {
	var o Outbox[boxed]
	x, r := 0, 0
	pair := func() {
		r++
		o.Put(r, boxed{p: &x, n: r})
		o.Put(r, boxed{n: -r})
	}
	pair()
	pair()
	if avg := testing.AllocsPerRun(100, pair); avg != 0 {
		t.Errorf("a steady pair of Puts makes %.2f allocations, want 0", avg)
	}
}
