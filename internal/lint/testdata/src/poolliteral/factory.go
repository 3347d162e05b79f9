// Fixture for pool-literal, factory side: this file is configured as
// the factory for Pooled. Its scrub literal is sanctioned; a miss
// carves from a slab, so a constructing literal is a finding even here.
package poolliteral

// Pooled stands in for a pooled kernel object (maxmin.Variable,
// surf.Action, …); the test config registers it with factory.go as its
// only factory file.
type Pooled struct {
	id   int
	data []byte
}

var (
	pool []*Pooled
	slab []Pooled // stands in for the owner's pool.Slab
)

// Grab is the factory: a miss carves from the slab.
func Grab() *Pooled {
	if n := len(pool); n > 0 {
		p := pool[n-1]
		pool = pool[:n-1]
		return p
	}
	if len(slab) == 0 {
		slab = make([]Pooled, 64)
	}
	p := &slab[0]
	slab = slab[1:]
	return p
}

// grabFresh bypasses the slab on a miss.
func grabFresh() *Pooled {
	return &Pooled{} // want "pooled type .*Pooled constructed by composite literal in its factory: carve a miss"
}

// grabValue builds one by value, then takes its address.
func grabValue() *Pooled {
	p := Pooled{id: 1} // want "pooled type .*Pooled constructed by composite literal in its factory"
	return &p
}

// Scrub resets a released object: the one literal sanctioned here.
func Scrub(p *Pooled) {
	*p = Pooled{} // the scrub: no finding
	pool = append(pool, p)
}

// scrubKeeping keeps a field across the scrub, as msg's releaseChain
// keeps its counters' backing array.
func scrubKeeping(p *Pooled) {
	data := p.data[:0]
	*p = Pooled{data: data} // a scrub with fields: no finding
	pool = append(pool, p)
}

// notAScrub assigns a literal to a plain variable: that builds one.
func notAScrub() {
	var p Pooled
	p = Pooled{id: 2} // want "pooled type .*Pooled constructed by composite literal in its factory"
	_ = p
}
