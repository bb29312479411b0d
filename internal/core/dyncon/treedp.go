package dyncon

import (
	"fmt"

	"dmpc/internal/etour"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/treedp"
)

// Tree-DP protocol over the §5 tour machinery (see internal/treedp for
// the interval algebra). Three query orchestrations, all run at the
// owner of the query's first vertex and keyed by the read's stream
// position in qpend:
//
//   - SubtreeSum: read f(u)/l(u) locally, fetch the root's comp and
//     appearance from its owner (one round trip), decide the Span —
//     whole component, u's interval, or the inverted child-toward-root
//     interval — and broadcast it; every machine replies one partial
//     sum over its weight records.
//   - PathSum: fetch the far endpoint's comp and appearance, then
//     broadcast both appearances; every machine evaluates the OnPath
//     predicate against its weighted vertices' locally computable
//     intervals and replies one partial sum.
//   - TreeTop: broadcast the component; every machine replies its local
//     argmax over owned vertices (weight 0 when unrecorded).
//
// No new round *types* are introduced: the orchestrations reuse the
// info-request/reply and send/gather shapes of the §5 update
// protocol, and the weight partials themselves are repaired by the very
// Shift descriptors links and cuts already send (onDoLink /
// onDoCut), so a zero-DP stream exchanges bit-identical messages to the
// pre-DP protocol.

// dpPending is one in-flight DP query orchestration.
type dpPending struct {
	kind   graph.OpKind
	u      int32
	comp   int64
	fu, lu int

	replies int
	sum     int64

	bestFound bool
	bestV     int32
	bestW     int64
}

// onSetWeight installs or overwrites the owned vertex's weight record.
// The anchor is any current appearance of the vertex (f(v), computed on
// demand; 0 for a singleton) — from here on it is maintained purely by
// the link and cut shift chains, like every non-tree anchor.
func (s *shard) onSetWeight(w *wire) {
	f, _ := s.flOf(w.U)
	s.weights[w.U] = &treedp.Rec{Anchor: f, Comp: s.verts[w.U], W: w.W}
}

func (s *shard) onDPSubtree(ctx *mpc.Ctx, w *wire) {
	u, r := w.U, w.V
	comp := s.verts[u]
	if u == r {
		// Rooting at u itself: the subtree is the whole component.
		s.qpend[w.Seq] = &dpPending{kind: graph.OpSubtreeSum, u: u, comp: comp}
		s.dpBroadcastSum(ctx, w.Seq, comp, treedp.Span{All: true})
		return
	}
	fu, lu := s.flOf(u)
	s.qpend[w.Seq] = &dpPending{kind: graph.OpSubtreeSum, u: u, comp: comp, fu: fu, lu: lu}
	ctx.Send(s.owner(r), &wire{Kind: kDPInfoReq, U: r, Seq: w.Seq, ReplyTo: int32(s.id)}, 4)
}

func (s *shard) onDPPath(ctx *mpc.Ctx, w *wire) {
	u, v := w.U, w.V
	if u == v {
		// The trivial path: w(u), readable locally at u's owner.
		var sum int64
		if rec, ok := s.weights[u]; ok {
			sum = rec.W
		}
		ctx.Answer(int(w.Seq), graph.Answer{Int: sum})
		return
	}
	fu, _ := s.flOf(u)
	s.qpend[w.Seq] = &dpPending{kind: graph.OpPathSum, u: u, comp: s.verts[u], fu: fu}
	ctx.Send(s.owner(v), &wire{Kind: kDPInfoReq, U: v, Seq: w.Seq, ReplyTo: int32(s.id)}, 4)
}

func (s *shard) onDPTop(ctx *mpc.Ctx, w *wire) {
	comp := s.verts[w.U]
	s.qpend[w.Seq] = &dpPending{kind: graph.OpTreeTop, u: w.U, comp: comp}
	ctx.Broadcast(&wire{Kind: kDPTopReq, Seq: w.Seq, Comp: comp, ReplyTo: int32(s.id)}, 4, true)
}

// onDPInfo resumes a SubtreeSum or PathSum orchestration once the far
// vertex's component and appearance arrive.
func (s *shard) onDPInfo(ctx *mpc.Ctx, w *wire) {
	p, ok := s.qpend[w.Seq]
	if !ok {
		return
	}
	switch p.kind {
	case graph.OpSubtreeSum:
		span := treedp.Span{All: true} // root in another component
		if w.Comp == p.comp {
			if etour.InSubtree(w.F, w.L, p.fu, p.lu) {
				// The root lies strictly below u: re-rooted at it, u's
				// subtree is everything EXCEPT the child-toward-root
				// subtree, whose interval u's owner reads locally.
				cf, cl := s.childTowards(p.u, p.comp, w.F)
				span = treedp.Span{Invert: true, Lo: cf, Hi: cl}
			} else {
				// Root above or beside u: the current interval stands.
				span = treedp.Span{Lo: p.fu, Hi: p.lu}
			}
		}
		s.dpBroadcastSum(ctx, w.Seq, p.comp, span)
	case graph.OpPathSum:
		if w.Comp != p.comp {
			ctx.Answer(int(w.Seq), graph.Answer{})
			delete(s.qpend, w.Seq)
			return
		}
		p.replies, p.sum = 0, 0
		ctx.Broadcast(&wire{
			Kind: kDPPathReq, Seq: w.Seq, Comp: p.comp,
			F: p.fu, L: w.F, ReplyTo: int32(s.id),
		}, 6, true)
	}
}

// childTowards finds the child-of-u subtree interval containing the
// appearance fr — u's owner holds every u-incident tree record, and on
// each record u is the parent iff its positions are the outer pair.
func (s *shard) childTowards(u int32, comp int64, fr int) (int, int) {
	for rec := s.adj[u]; rec != nil; rec = *rec.linkAt(u) {
		cf, cl := childInterval(&rec.pos)
		pu := posOf(&rec.pos, int(u))
		if pu[0] == cf || pu[0] == cl {
			continue // u is the child on this record
		}
		if fr >= cf && fr <= cl {
			return cf, cl
		}
	}
	panic(fmt.Sprintf("dyncon: no child interval of %d holds appearance %d (comp %d)", u, fr, comp))
}

// dpBroadcastSum ships the Span predicate to every machine and resets
// the pending reply collection.
func (s *shard) dpBroadcastSum(ctx *mpc.Ctx, seq int64, comp int64, span treedp.Span) {
	p := s.qpend[seq]
	p.replies, p.sum = 0, 0
	ctx.Broadcast(&wire{
		Kind: kDPSumReq, Seq: seq, Comp: comp, Span: span, ReplyTo: int32(s.id),
	}, 4+span.Words(), true)
}

// onDPSumReq evaluates the Span over the weight records of the component's
// owned vertices: one anchor comparison per record, one partial sum back.
// O(the component's share of the shard) work, O(1) words.
func (s *shard) onDPSumReq(ctx *mpc.Ctx, w *wire) {
	var sum int64
	if len(s.weights) > 0 {
		for _, v := range s.compVerts[w.Comp] {
			if rec, ok := s.weights[v]; ok && w.Span.Contains(rec.Anchor) {
				sum += rec.W
			}
		}
	}
	ctx.Send(int(w.ReplyTo), &wire{Kind: kDPSumRep, Seq: w.Seq, W: sum}, 3)
}

func (s *shard) onDPSumRep(ctx *mpc.Ctx, w *wire) {
	p, ok := s.qpend[w.Seq]
	if !ok {
		return
	}
	p.replies++
	p.sum += w.W
	if p.replies < s.mu {
		return
	}
	ctx.Answer(int(w.Seq), graph.Answer{Int: p.sum})
	delete(s.qpend, w.Seq)
}

// onDPPathReq evaluates the OnPath predicate for every owned weighted
// vertex of the component. A vertex's incident tree records — the owner
// files them all — give its interval [f, l] (flOf) and whether a single
// child interval holds both broadcast appearances; OnPath then keeps
// exactly the vertices of the u–v path (LCA included once).
func (s *shard) onDPPathReq(ctx *mpc.Ctx, w *wire) {
	au, av := w.F, w.L
	var sum int64
	if len(s.weights) > 0 {
		for _, v := range s.compVerts[w.Comp] {
			wt, ok := s.weights[v]
			if !ok {
				continue
			}
			f, l := s.flOf(v)
			childBoth := false
			for rec := s.adj[v]; rec != nil; rec = *rec.linkAt(v) {
				cf, cl := childInterval(&rec.pos)
				if p := posOf(&rec.pos, int(v))[0]; p != cf && p != cl && // v is the parent here
					cf <= au && au <= cl && cf <= av && av <= cl {
					childBoth = true
				}
			}
			if treedp.OnPath(f, l, au, av, childBoth) {
				sum += wt.W
			}
		}
	}
	ctx.Send(int(w.ReplyTo), &wire{Kind: kDPSumRep, Seq: w.Seq, W: sum}, 3)
}

// onDPTopReq reports the shard's local argmax over the component's
// owned vertices — every vertex counts, at weight 0 when unrecorded, so
// the global answer is total over the component.
func (s *shard) onDPTopReq(ctx *mpc.Ctx, w *wire) {
	reply := &wire{Kind: kDPTopRep, Seq: w.Seq}
	for _, v := range s.compVerts[w.Comp] {
		var wt int64
		if rec, ok := s.weights[v]; ok {
			wt = rec.W
		}
		if !reply.Found || wt > reply.W || (wt == reply.W && v < reply.U) {
			reply.Found = true
			reply.U, reply.W = v, wt
		}
	}
	ctx.Send(int(w.ReplyTo), reply, 5)
}

func (s *shard) onDPTopRep(ctx *mpc.Ctx, w *wire) {
	p, ok := s.qpend[w.Seq]
	if !ok || p.kind != graph.OpTreeTop {
		return
	}
	p.replies++
	if w.Found && (!p.bestFound || w.W > p.bestW || (w.W == p.bestW && w.U < p.bestV)) {
		p.bestFound = true
		p.bestV, p.bestW = w.U, w.W
	}
	if p.replies < s.mu {
		return
	}
	ctx.Answer(int(w.Seq), graph.Answer{Int: int64(p.bestV)})
	delete(s.qpend, w.Seq)
}
