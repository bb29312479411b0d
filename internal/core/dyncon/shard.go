package dyncon

import (
	"fmt"

	"dmpc/internal/etour"
	"dmpc/internal/graph"
	"dmpc/internal/mpc"
	"dmpc/internal/treedp"
)

// Message kinds of the §5 protocol.
type kind int32

const (
	kUpdate      kind = iota // external update, delivered to owner(U)
	kInfoReq                 // orchestrator -> owner(v): report comp, f, l
	kInfoRep                 // owner -> orchestrator
	kSizeReq                 // orchestrator -> registry(comp)
	kSizeRep                 // registry -> orchestrator
	kDoLink                  // broadcast: apply link shifts, add tree record
	kAddNonTree              // orchestrator -> owners: store a non-tree record
	kDelNonTree              // orchestrator -> owner: drop a non-tree record
	kDoCut                   // broadcast: apply cut shifts, report candidates
	kCandidate               // machine -> orchestrator: replacement candidate
	kPathMaxReq              // broadcast (MST): report max tree edge on path
	kPathMaxRep              // machine -> orchestrator
	kQuery                   // external connectivity query at owner(u)
	kQueryFwd                // owner(u) -> owner(v)
	kCompQuery               // external component query at owner(v)
	kIntervalReq             // orchestrator -> record owner: child interval of a tree edge
	kIntervalRep
	kSetWeight // external vertex-weight write at owner(v) (tree DP)
	kDPSubtree // external subtree-sum query at owner(u)
	kDPPath    // external path-sum query at owner(u)
	kDPTop     // external tree-top query at owner(u)
	// kDPInfoReq mirrors kInfoReq for the DP orchestrations, which key
	// their pending state by query id — numerically overlapping the
	// update seq space — so the reply must route to qpend, never pend.
	kDPInfoReq
	kDPInfoRep
	kDPSumReq  // broadcast: sum weight records matching Span in Comp
	kDPSumRep  // machine -> DP orchestrator: one partial sum
	kDPPathReq // broadcast: sum weights on the au..av tree path in Comp
	kDPTopReq  // broadcast: local weight argmax over Comp's owned vertices
	kDPTopRep  // machine -> DP orchestrator: local argmax candidate
)

// wire is the single message payload of the protocol; Kind selects which
// fields are meaningful. Words charged per message reflect the populated
// field count, all O(1).
//
// Payloads travel as *wire and are immutable once sent: Broadcast hands one
// payload to all µ inboxes, so a handler reads what it receives and never
// writes it — which is also what lets Miss be shared.
type wire struct {
	Kind        kind
	U, V        int32
	ReplyTo     int32
	W           int64
	Seq         int64
	Comp, Comp2 int64
	F, L        int
	Size        int
	Q, Ly       int
	Fy, LyCut   int // cut interval
	TourLen     int
	SubSize     int
	RestSize    int
	Shifts      []etour.Shift
	Pos         etour.EdgePos
	Span        treedp.Span
	AnchorU     int
	AnchorV     int
	Promote     bool
	Convert     bool // cut converts the edge to non-tree (MST swap)
	NoReplace   bool
	Found       bool
	Flag        bool
	// Miss, on a gathering broadcast (kDoCut, kPathMaxReq), is the reply of a
	// machine with nothing to report: the broadcaster builds the one value
	// its µ receivers would each have built, and they send that.
	Miss *wire
}

func (w *wire) words() int { return 16 + 5*len(w.Shifts) }

// treeRec is one tree edge's state: its four tour positions (etour.EdgePos,
// self-describing), the component and the operative weight.
//
// next chains the records filed under endpoint pos.U (next[0]) and pos.V
// (next[1]) in the shard's adjacency; nil ends a list. An endpoint another
// machine owns has no list here, and its link points at the record itself —
// "is the other endpoint filed here too" is then one pointer compare per
// visit (an owner() division per visit was a fifth of a one-component
// set-up).
type treeRec struct {
	pos  etour.EdgePos
	comp int64
	w    int64
	next [2]*treeRec
}

func (r *treeRec) linkAt(v int32) **treeRec {
	if int(v) == r.pos.U {
		return &r.next[0]
	}
	return &r.next[1]
}

// rewrittenFrom reports whether a walk that reached r through its endpoint v
// is the one that rewrites it: a record with both endpoints on this shard is
// reached from each of them, and shifted from U only.
func (r *treeRec) rewrittenFrom(v int32) bool { return int(v) == r.pos.U || r.next[0] == r }

// ntRec is a non-tree edge: one anchor position and component per endpoint.
// Anchors are arbitrary surviving tour appearances of their endpoint; 0
// marks an endpoint that is currently a singleton (only possible while the
// record crosses a fresh cut, and then that endpoint is always a named
// endpoint of the healing link). next files it the way treeRec's does.
type ntRec struct {
	u, v   int32
	aU, aV int
	cU, cV int64
	w      int64
	next   [2]*ntRec
}

func (r *ntRec) linkAt(v int32) **ntRec {
	if v == r.u {
		return &r.next[0]
	}
	return &r.next[1]
}

func (r *ntRec) rewrittenFrom(v int32) bool { return v == r.u || r.next[0] == r }

// filed heads the records filed under one owned vertex.
type filed struct {
	tree *treeRec
	nt   *ntRec
}

// pending tracks one in-flight orchestration at the coordinator-for-this-
// update (the owner of the update's first endpoint).
type pending struct {
	op    graph.Update
	stage int

	gotU, gotV   bool
	compU, compV int64
	fU, lU       int
	fV, lV       int

	gotSizeU, gotSizeV bool
	sizeU, sizeV       int

	// cut state
	cutEdge  graph.Edge
	cutW     int64
	cutComp  int64
	newComp  int64
	fy, ly   int
	subSize  int
	restSize int
	convert  bool

	// pathmax / candidate collection
	replies   int
	bestFound bool
	bestU     int32
	bestV     int32
	bestW     int64

	// after a swap-cut, link the pending edge
	relinkU, relinkV int32
	relinkW          int64
	relinkPromote    bool
}

const (
	stInfo = iota
	stSizes
	stPathMax
	stInterval
	stSizeForCut
	stCandidates
	stInfoRelink
	stSizeForSwapCut
)

type shard struct {
	id, mu int
	cfg    Config

	verts map[int32]int64
	// compVerts is the inverse of verts — component label -> owned
	// vertices carrying it — so the broadcast relabel loops in onDoLink
	// and onDoCut walk only the touched component instead of scanning
	// every owned vertex (O(n/µ) per machine per broadcast, i.e. O(n)
	// cluster-wide work per update once n reaches 10^5). The index is a
	// runtime cache derived from verts: it never changes messages, stats
	// or MemWords, which charge for the logical state only.
	compVerts map[int64][]int32
	// tree and nontree are the by-edge lookup (duplicate check, delete,
	// interval request, broadcasts) and what MemWords counts. adj files the
	// same records under the owned vertices they are incident to — a record
	// is on this shard because an endpoint is owned — so a handler that names
	// a component reaches its records through compVerts[comp] → adj: it costs
	// what the component holds here, and nothing on a shard holding none of
	// it. Like compVerts, adj is a runtime cache, never billed or sent; an
	// entry whose lists drain is dropped.
	//
	// The walk is exact because a Shift is a no-op on a position whose label
	// it does not name, and a label is its vertex's: a tree record's comp
	// labels both endpoints, a weight record's Comp its vertex, a non-tree
	// anchor's component its endpoint. A named anchor whose endpoint lives
	// elsewhere is reached from the record's owned endpoint, which carries
	// the same label — unless the record crosses a fresh cut, and a crossing
	// record exists only between a cut broadcast and its relink, both of
	// which name both sides.
	tree    map[graph.Edge]*treeRec
	nontree map[graph.Edge]*ntRec
	adj     map[int32]filed
	sizes   map[int64]int
	pend    map[int64]*pending

	// Tree-DP state (internal/treedp): one weight record per owned
	// weighted vertex, repaired on every link/cut broadcast, and DP query
	// orchestration state, keyed by the read's stream position. qpend is
	// deliberately separate from pend: read positions and update seqs
	// overlap numerically.
	weights map[int32]*treedp.Rec
	qpend   map[int64]*dpPending
}

func newShard(id, mu int, cfg Config) *shard {
	return &shard{
		id: id, mu: mu, cfg: cfg,
		verts:     make(map[int32]int64),
		compVerts: make(map[int64][]int32),
		tree:      make(map[graph.Edge]*treeRec),
		nontree:   make(map[graph.Edge]*ntRec),
		adj:       make(map[int32]filed),
		sizes:     make(map[int64]int),
		pend:      make(map[int64]*pending),
		weights:   make(map[int32]*treedp.Rec),
		qpend:     make(map[int64]*dpPending),
	}
}

func (s *shard) owner(v int32) int         { return int(v) % s.mu }
func (s *shard) registry(comp int64) int32 { return int32(comp % int64(s.mu)) }

func (s *shard) MemWords() int {
	return 2*len(s.verts) + 7*len(s.tree) + 7*len(s.nontree) + 2*len(s.sizes) + 4*len(s.weights)
}

// addTree stores e's tree record and files it under its owned endpoints.
func (s *shard) addTree(e graph.Edge, r *treeRec) {
	s.tree[e] = r
	for i, x := range [2]int32{int32(e.U), int32(e.V)} {
		if s.owner(x) != s.id {
			r.next[i] = r
			continue
		}
		h := s.adj[x]
		r.next[i], h.tree = h.tree, r
		s.adj[x] = h
	}
}

// removeTree unfiles and returns e's tree record, nil if the shard holds none.
func (s *shard) removeTree(e graph.Edge) *treeRec {
	r, ok := s.tree[e]
	if !ok {
		return nil
	}
	delete(s.tree, e)
	for i, x := range [2]int32{int32(e.U), int32(e.V)} {
		if r.next[i] == r {
			continue
		}
		h := s.adj[x]
		at := &h.tree
		for *at != r {
			at = (*at).linkAt(x)
		}
		*at = r.next[i]
		s.setFiled(x, h)
	}
	return r
}

// addNonTree and removeNonTree are addTree and removeTree for non-tree records.
func (s *shard) addNonTree(e graph.Edge, r *ntRec) {
	r.u, r.v = int32(e.U), int32(e.V)
	s.nontree[e] = r
	for i, x := range [2]int32{r.u, r.v} {
		if s.owner(x) != s.id {
			r.next[i] = r
			continue
		}
		h := s.adj[x]
		r.next[i], h.nt = h.nt, r
		s.adj[x] = h
	}
}

func (s *shard) removeNonTree(e graph.Edge) *ntRec {
	r, ok := s.nontree[e]
	if !ok {
		return nil
	}
	delete(s.nontree, e)
	for i, x := range [2]int32{r.u, r.v} {
		if r.next[i] == r {
			continue
		}
		h := s.adj[x]
		at := &h.nt
		for *at != r {
			at = (*at).linkAt(x)
		}
		*at = r.next[i]
		s.setFiled(x, h)
	}
	return r
}

// setFiled writes back x's heads after an unlink, dropping a drained entry.
func (s *shard) setFiled(x int32, h filed) {
	if h == (filed{}) {
		delete(s.adj, x)
	} else {
		s.adj[x] = h
	}
}

// flOf computes f(v), l(v) from v's incident tree records — the on-demand
// computation §5 prescribes. Zero values mean singleton.
func (s *shard) flOf(v int32) (f, l int) {
	for r := s.adj[v].tree; r != nil; r = *r.linkAt(v) {
		for _, i := range posOf(&r.pos, int(v)) {
			if f == 0 || i < f {
				f = i
			}
			if i > l {
				l = i
			}
		}
	}
	return f, l
}

func posOf(e *etour.EdgePos, v int) [2]int {
	if v == e.U {
		return [2]int{e.UV[0], e.VU[1]}
	}
	return [2]int{e.UV[1], e.VU[0]}
}

// applyChain runs the shift list over one position with its component
// label, honoring per-shift component conditioning and relabeling.
func applyChain(shifts []etour.Shift, pos int, comp int64) (int, int64) {
	if pos == 0 {
		return pos, comp // singleton anchors are fixed by named-endpoint rules only
	}
	for _, sh := range shifts {
		if comp != sh.Comp {
			continue
		}
		moved := sh.Moves(pos)
		pos = sh.Apply(pos)
		if moved {
			comp = sh.NewComp
		}
	}
	return pos, comp
}

// applyChainRec shifts all four positions of a tree record. The positions
// of one record always sit on the same side of any cut interval and share
// one component trajectory, so each shift is tested against the record's
// component once and applied to all four, and the relabel decided on the
// first position applies to the record.
func applyChainRec(shifts []etour.Shift, rec *treeRec) {
	p := &rec.pos
	for i := range shifts {
		sh := &shifts[i]
		if rec.comp != sh.Comp {
			continue
		}
		if sh.Moves(p.UV[0]) {
			rec.comp = sh.NewComp
		}
		p.UV[0], p.UV[1] = sh.Apply(p.UV[0]), sh.Apply(p.UV[1])
		p.VU[0], p.VU[1] = sh.Apply(p.VU[0]), sh.Apply(p.VU[1])
	}
}

func (s *shard) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, m := range inbox {
		w, ok := m.Payload.(*wire)
		if !ok {
			continue
		}
		switch w.Kind {
		case kUpdate:
			s.startUpdate(ctx, w)
		case kInfoReq:
			f, l := s.flOf(w.U)
			ctx.Send(int(w.ReplyTo), &wire{
				Kind: kInfoRep, U: w.U, Seq: w.Seq,
				Comp: s.verts[w.U], F: f, L: l,
			}, 7)
		case kInfoRep:
			s.onInfo(ctx, w)
		case kSizeReq:
			ctx.Send(int(w.ReplyTo), &wire{
				Kind: kSizeRep, Comp: w.Comp, Seq: w.Seq, Size: s.sizes[w.Comp],
			}, 5)
		case kSizeRep:
			s.onSize(ctx, w)
		case kDoLink:
			s.onDoLink(w)
		case kAddNonTree:
			e := graph.NormEdge(int(w.U), int(w.V))
			au, av := w.AnchorU, w.AnchorV
			if e.U != int(w.U) {
				au, av = av, au
			}
			s.addNonTree(e, &ntRec{aU: au, aV: av, cU: w.Comp, cV: w.Comp, w: w.W})
		case kDelNonTree:
			s.removeNonTree(graph.NormEdge(int(w.U), int(w.V)))
		case kDoCut:
			ctx.Send(int(w.ReplyTo), s.onDoCut(w), 6)
		case kCandidate:
			s.onCandidate(ctx, w)
		case kPathMaxReq:
			ctx.Send(int(w.ReplyTo), s.onPathMaxReq(w), 6)
		case kPathMaxRep:
			s.onPathMaxRep(ctx, w)
		case kQuery:
			ctx.Send(s.owner(w.V), &wire{
				Kind: kQueryFwd, U: w.U, V: w.V, Seq: w.Seq, Comp: s.verts[w.U],
			}, 5)
		case kQueryFwd:
			ctx.Answer(int(w.Seq), graph.Answer{Bool: s.verts[w.V] == w.Comp})
		case kCompQuery:
			ctx.Answer(int(w.Seq), graph.Answer{Int: s.verts[w.V]})
		case kIntervalReq:
			s.onIntervalReq(ctx, w)
		case kIntervalRep:
			s.onIntervalRep(ctx, w)
		case kSetWeight:
			s.onSetWeight(w)
		case kDPSubtree:
			s.onDPSubtree(ctx, w)
		case kDPPath:
			s.onDPPath(ctx, w)
		case kDPTop:
			s.onDPTop(ctx, w)
		case kDPInfoReq:
			f, l := s.flOf(w.U)
			ctx.Send(int(w.ReplyTo), &wire{
				Kind: kDPInfoRep, U: w.U, Seq: w.Seq,
				Comp: s.verts[w.U], F: f, L: l,
			}, 7)
		case kDPInfoRep:
			s.onDPInfo(ctx, w)
		case kDPSumReq:
			s.onDPSumReq(ctx, w)
		case kDPSumRep:
			s.onDPSumRep(ctx, w)
		case kDPPathReq:
			s.onDPPathReq(ctx, w)
		case kDPTopReq:
			s.onDPTopReq(ctx, w)
		case kDPTopRep:
			s.onDPTopRep(ctx, w)
		}
	}
}

// startUpdate begins orchestration at the owner of the update's endpoint.
// Deletes are marked by w.Flag.
func (s *shard) startUpdate(ctx *mpc.Ctx, w *wire) {
	e := graph.NormEdge(int(w.U), int(w.V))
	if w.U == w.V {
		return
	}
	if !w.Flag {
		// Duplicate check: the orchestrator owns U and hence every record
		// incident to U.
		if _, dup := s.tree[e]; dup {
			return
		}
		if _, dup := s.nontree[e]; dup {
			return
		}
		p := &pending{op: graph.Update{Op: graph.Insert, U: int(w.U), V: int(w.V), W: graph.Weight(w.W)}, stage: stInfo}
		s.pend[w.Seq] = p
		s.sendInfoReqs(ctx, w.Seq, w.U, w.V)
		return
	}
	// Delete.
	if s.removeNonTree(e) != nil {
		if s.owner(int32(e.V)) != s.id || s.owner(int32(e.U)) != s.id {
			other := s.owner(int32(e.V))
			if other == s.id {
				other = s.owner(int32(e.U))
			}
			ctx.Send(other, &wire{Kind: kDelNonTree, U: int32(e.U), V: int32(e.V)}, 3)
		}
		return
	}
	rec, ok := s.tree[e]
	if !ok {
		return // unknown edge
	}
	// Tree edge: identify the child interval from the inner position pair.
	fy, ly := childInterval(&rec.pos)
	p := &pending{
		op:      graph.Update{Op: graph.Delete, U: int(w.U), V: int(w.V)},
		stage:   stSizeForCut,
		cutEdge: e, cutW: rec.w, cutComp: rec.comp,
		fy: fy, ly: ly,
		newComp: int64(s.cfg.N) + 2*w.Seq,
	}
	s.pend[w.Seq] = p
	ctx.Send(int(s.registry(rec.comp)), &wire{
		Kind: kSizeReq, Comp: rec.comp, Seq: w.Seq, ReplyTo: int32(s.id),
	}, 5)
}

// childInterval extracts the child endpoint's [f,l] from an edge record:
// the inner pair of its four positions. An arc's two positions are adjacent
// (2k-1, 2k), so the arcs do not interleave and the inner pair is the end of
// the earlier arc and the start of the later one.
func childInterval(e *etour.EdgePos) (fy, ly int) {
	if e.UV[0] < e.VU[0] {
		return e.UV[1], e.VU[0]
	}
	return e.VU[1], e.UV[0]
}

func (s *shard) sendInfoReqs(ctx *mpc.Ctx, seq int64, u, v int32) {
	ctx.Send(s.owner(u), &wire{Kind: kInfoReq, U: u, Seq: seq, ReplyTo: int32(s.id)}, 4)
	ctx.Send(s.owner(v), &wire{Kind: kInfoReq, U: v, Seq: seq, ReplyTo: int32(s.id)}, 4)
}

func (s *shard) onInfo(ctx *mpc.Ctx, w *wire) {
	p, ok := s.pend[w.Seq]
	if !ok {
		return
	}
	var u, v int32
	if p.stage == stInfoRelink {
		u, v = p.relinkU, p.relinkV
	} else {
		u, v = int32(p.op.U), int32(p.op.V)
	}
	if w.U == u {
		p.gotU, p.compU, p.fU, p.lU = true, w.Comp, w.F, w.L
	}
	if w.U == v {
		p.gotV, p.compV, p.fV, p.lV = true, w.Comp, w.F, w.L
	}
	if !p.gotU || !p.gotV {
		return
	}
	switch p.stage {
	case stInfo:
		if p.compU == p.compV {
			if s.cfg.Mode == MST {
				// Look for a heavier tree edge on the cycle.
				p.stage = stPathMax
				p.replies = 0
				p.bestFound = false
				ctx.Broadcast(&wire{
					Kind: kPathMaxReq, Seq: w.Seq, Comp: p.compU,
					F: p.fU, L: p.lU, Fy: p.fV, LyCut: p.lV,
					ReplyTo: int32(s.id),
					Miss:    &wire{Kind: kPathMaxRep, Seq: w.Seq},
				}, 9, true)
				return
			}
			s.sendAddNonTree(ctx, int32(p.op.U), int32(p.op.V), int64(p.op.W), p.compU, p.fU, p.fV)
			delete(s.pend, w.Seq)
			return
		}
		p.stage = stSizes
		s.sendSizeReqs(ctx, w.Seq, p.compU, p.compV)
	case stInfoRelink:
		// Sizes of both components are already known from the cut.
		sizeU, sizeV := p.restSize, p.subSize
		if p.compU == p.newComp {
			sizeU, sizeV = p.subSize, p.restSize
		}
		s.broadcastLink(ctx, w.Seq, p.relinkU, p.relinkV, p.relinkW,
			p.compU, p.compV, sizeU, sizeV, p.fU, p.lU, p.fV, p.lV, p.relinkPromote)
		delete(s.pend, w.Seq)
	}
}

func (s *shard) sendSizeReqs(ctx *mpc.Ctx, seq int64, compU, compV int64) {
	ctx.Send(int(s.registry(compU)), &wire{Kind: kSizeReq, Comp: compU, Seq: seq, ReplyTo: int32(s.id)}, 5)
	ctx.Send(int(s.registry(compV)), &wire{Kind: kSizeReq, Comp: compV, Seq: seq, ReplyTo: int32(s.id)}, 5)
}

func (s *shard) sendAddNonTree(ctx *mpc.Ctx, u, v int32, w int64, comp int64, au, av int) {
	msg := &wire{Kind: kAddNonTree, U: u, V: v, W: w, Comp: comp, AnchorU: au, AnchorV: av}
	ctx.Send(s.owner(u), msg, 8)
	if s.owner(v) != s.owner(u) {
		ctx.Send(s.owner(v), msg, 8)
	}
}

func (s *shard) onSize(ctx *mpc.Ctx, w *wire) {
	p, ok := s.pend[w.Seq]
	if !ok {
		return
	}
	switch p.stage {
	case stSizes:
		if w.Comp == p.compU {
			p.gotSizeU, p.sizeU = true, w.Size
		}
		if w.Comp == p.compV {
			p.gotSizeV, p.sizeV = true, w.Size
		}
		if !p.gotSizeU || !p.gotSizeV {
			return
		}
		s.broadcastLink(ctx, w.Seq, int32(p.op.U), int32(p.op.V), int64(p.op.W),
			p.compU, p.compV, p.sizeU, p.sizeV, p.fU, p.lU, p.fV, p.lV, false)
		delete(s.pend, w.Seq)
	case stSizeForCut, stSizeForSwapCut:
		size := w.Size
		L := 4 * (size - 1)
		p.subSize = (p.ly-p.fy-1)/4 + 1
		p.restSize = size - p.subSize
		shifts := []etour.Shift{
			{Kind: etour.ShiftCutRepair, Comp: p.cutComp, NewComp: p.newComp, A: p.fy, B: p.ly, C: L},
			{Kind: etour.ShiftCutSub, Comp: p.cutComp, NewComp: p.newComp, A: p.fy, B: p.ly},
			{Kind: etour.ShiftCutRest, Comp: p.cutComp, NewComp: p.cutComp, A: p.fy, B: p.ly},
		}
		p.replies = 0
		p.bestFound = false
		p.stage = stCandidates // a swap cut also collects its (empty) candidate replies
		msg := &wire{
			Kind: kDoCut, Seq: w.Seq,
			U: int32(p.cutEdge.U), V: int32(p.cutEdge.V), W: p.cutW,
			Comp: p.cutComp, Comp2: p.newComp,
			Fy: p.fy, LyCut: p.ly, TourLen: L,
			SubSize: p.subSize, RestSize: p.restSize,
			Shifts:  shifts,
			Convert: p.convert, NoReplace: p.convert,
			ReplyTo: int32(s.id),
			Miss:    &wire{Kind: kCandidate, Seq: w.Seq},
		}
		ctx.Broadcast(msg, msg.words(), true)
	}
}

// rewrite applies link or cut broadcast w to everything filed under members,
// the owned vertices of one component it names, each record once and left
// final: chain — the shifts of w that can address a position carrying that
// label — to their tree and weight records, all of w.Shifts to their non-tree
// records, whose far anchor may carry the other named label. A link heals the
// singleton anchors it names in the same visit; a cut returns the best
// replacement candidate among the records it visited (every crossing record
// carried the cut component's label on both sides before, so it is visited).
func (s *shard) rewrite(w *wire, members []int32, chain []etour.Shift) (best *ntRec) {
	weighted := len(s.weights) > 0
	for _, v := range members {
		if weighted {
			if rec, ok := s.weights[v]; ok {
				rec.ApplyShifts(chain)
				if rec.Anchor == 0 && w.Kind == kDoLink {
					rec.Anchor, rec.Comp = healed(w, v, rec.Comp)
				}
			}
		}
		h := s.adj[v]
		for r := h.tree; r != nil; r = *r.linkAt(v) {
			if r.rewrittenFrom(v) {
				applyChainRec(chain, r)
			}
		}
		for r := h.nt; r != nil; r = *r.linkAt(v) {
			if !r.rewrittenFrom(v) {
				continue
			}
			r.aU, r.cU = applyChain(w.Shifts, r.aU, r.cU)
			r.aV, r.cV = applyChain(w.Shifts, r.aV, r.cV)
			if w.Kind == kDoLink {
				if r.aU == 0 {
					r.aU, r.cU = healed(w, r.u, r.cU)
				}
				if r.aV == 0 {
					r.aV, r.cV = healed(w, r.v, r.cV)
				}
			} else if (r.cU == w.Comp && r.cV == w.Comp2) || (r.cU == w.Comp2 && r.cV == w.Comp) {
				if best == nil || betterCandidate(s.cfg.Mode, r.w, r.u, r.v, best.w, best.u, best.v) {
					best = r
				}
			}
		}
	}
	return best
}

// members returns the owned vertices of comp, a component a link or cut
// broadcast names. onlyNamed says the registry sizes the broadcast carries
// leave no member but the named endpoints u and v — a link side of one
// vertex, a cut component of two — so a shard owning neither holds none of
// comp and skips the lookup: on a sparse graph, almost every shard for
// almost every link and cut. Validate audits the registry sizes this trusts.
func (s *shard) members(comp int64, onlyNamed bool, u, v int32) []int32 {
	if onlyNamed && s.owner(u) != s.id && s.owner(v) != s.id {
		return nil
	}
	return s.compVerts[comp]
}

// healed gives a singleton anchor of vertex v (position 0, labelled comp) its
// fresh position under link w: x appears at q+1, y at q+2 and joins the host.
// A singleton's component can only be linked through its own vertex, so the
// link's names always cover anchor value 0.
func healed(w *wire, v int32, comp int64) (int, int64) {
	switch {
	case v == w.U && comp == w.Comp:
		return w.Q + 1, comp
	case v == w.V && comp == w.Comp2:
		return w.Q + 2, w.Comp
	}
	return 0, comp
}

// onDoCut applies a cut broadcast to the local shard and returns its reply
// to the orchestrator: a replacement candidate, or w.Miss.
func (s *shard) onDoCut(w *wire) *wire {
	compOld, compNew := w.Comp, w.Comp2
	// Only the owners of the cut edge's endpoints can hold its record.
	var captured *treeRec
	if s.owner(w.U) == s.id || s.owner(w.V) == s.id {
		captured = s.removeTree(graph.NormEdge(int(w.U), int(w.V)))
	}
	// Tree records shift all four positions together, non-tree anchors one
	// by one, and weight records repair under the identical rule: the
	// cut-repair shift remaps anchors sitting on the four removed positions
	// onto surviving appearances (or 0 + the fresh component for a cut-off
	// singleton), and the sub/rest shifts renumber the rest.
	members := s.members(compOld, w.SubSize+w.RestSize == 2, w.U, w.V)
	best := s.rewrite(w, members, w.Shifts)
	// Named endpoints: the child (whose interval was [fy,ly] pre-cut) is
	// the endpoint appearing at fy on the captured record. Resolved before
	// the relabel pass so it can be routed directly.
	childV := int32(-1)
	child, parent := int(w.U), int(w.V)
	if captured != nil {
		pu := posOf(&captured.pos, int(w.U))
		if pu[0] != w.Fy && pu[1] != w.Fy {
			child, parent = int(w.V), int(w.U)
		}
		if s.owner(int32(child)) == s.id {
			childV = int32(child)
		}
	}
	// Vertex labels: an owned vertex adopts the component of any of its
	// incident tree records, all final by now — all tour appearances of a
	// vertex land on one side of the cut, so they agree; the named child
	// endpoint is handled explicitly since it may have lost its only record.
	// Only vertices labeled compOld can move.
	if len(members) > 0 {
		kept := members[:0]
		for _, v := range members {
			if v == childV {
				continue // labeled compNew below
			}
			if r := s.adj[v].tree; r != nil && r.comp != compOld {
				s.verts[v] = r.comp
				s.compVerts[r.comp] = append(s.compVerts[r.comp], v)
			} else {
				kept = append(kept, v)
			}
		}
		if len(kept) == 0 {
			delete(s.compVerts, compOld)
		} else {
			s.compVerts[compOld] = kept
		}
	}
	if childV >= 0 {
		s.verts[childV] = compNew
		s.compVerts[compNew] = append(s.compVerts[compNew], childV)
	}
	if captured != nil && w.Convert {
		// Re-add the evicted MST edge as a non-tree record with repaired
		// anchors; the repair shift handles the singleton endpoints
		// (position 0, fresh component) uniformly.
		e := graph.Edge{U: captured.pos.U, V: captured.pos.V}
		aU, cU := applyChain(w.Shifts, posOf(&captured.pos, e.U)[0], compOld)
		aV, cV := applyChain(w.Shifts, posOf(&captured.pos, e.V)[0], compOld)
		if w.Fy == 2 && w.LyCut == w.TourLen-1 { // the rest is a singleton
			if e.U == parent {
				aU, cU = 0, compOld
			} else {
				aV, cV = 0, compOld
			}
		}
		s.addNonTree(e, &ntRec{aU: aU, aV: aV, cU: cU, cV: cV, w: w.W})
	}
	// Registry updates.
	if s.registry(compOld) == int32(s.id) {
		s.sizes[compOld] = w.RestSize
	}
	if s.registry(compNew) == int32(s.id) {
		s.sizes[compNew] = w.SubSize
	}
	if best == nil || w.NoReplace {
		return w.Miss
	}
	return &wire{Kind: kCandidate, Seq: w.Seq, Found: true, U: best.u, V: best.v, W: best.w}
}

// betterCandidate orders replacement candidates: min weight first in MST
// mode, then lexicographic ids for determinism.
func betterCandidate(mode Mode, w int64, u, v int32, bw int64, bu, bv int32) bool {
	if mode == MST && w != bw {
		return w < bw
	}
	if u != bu {
		return u < bu
	}
	return v < bv
}

func (s *shard) onCandidate(ctx *mpc.Ctx, w *wire) {
	p, ok := s.pend[w.Seq]
	if !ok || p.stage != stCandidates {
		return
	}
	p.replies++
	if w.Found && (!p.bestFound || betterCandidate(s.cfg.Mode, w.W, w.U, w.V, p.bestW, p.bestU, p.bestV)) {
		p.bestFound = true
		p.bestU, p.bestV, p.bestW = w.U, w.V, w.W
	}
	if p.replies < s.mu {
		return
	}
	if p.convert {
		// Swap cut complete: now link the originally inserted edge.
		p.stage = stInfoRelink
		p.relinkU, p.relinkV = int32(p.op.U), int32(p.op.V)
		p.relinkW = int64(p.op.W)
		p.relinkPromote = false
		p.gotU, p.gotV = false, false
		s.sendInfoReqs(ctx, w.Seq, p.relinkU, p.relinkV)
		return
	}
	if !p.bestFound {
		delete(s.pend, w.Seq) // components stay split
		return
	}
	// Promote the winning non-tree edge to a tree edge via a link.
	p.stage = stInfoRelink
	p.relinkU, p.relinkV = p.bestU, p.bestV
	p.relinkW = p.bestW
	p.relinkPromote = true
	p.gotU, p.gotV = false, false
	s.sendInfoReqs(ctx, w.Seq, p.bestU, p.bestV)
}

func (s *shard) onPathMaxReq(w *wire) *wire {
	// Broadcast fields: F,L = f(x),l(x); Fy,LyCut = f(y),l(y); Comp.
	fx, fy := w.F, w.Fy
	var best *treeRec
	for _, v := range s.compVerts[w.Comp] {
		for r := s.adj[v].tree; r != nil; r = *r.linkAt(v) {
			cf, cl := childInterval(&r.pos)
			onPath := (cf <= fx && fx <= cl) != (cf <= fy && fy <= cl)
			if !onPath {
				continue
			}
			if best == nil || r.w > best.w ||
				(r.w == best.w && (r.pos.U < best.pos.U || (r.pos.U == best.pos.U && r.pos.V < best.pos.V))) {
				best = r
			}
		}
	}
	if best == nil {
		return w.Miss
	}
	return &wire{Kind: kPathMaxRep, Seq: w.Seq, Found: true, U: int32(best.pos.U), V: int32(best.pos.V), W: best.w}
}

func (s *shard) onPathMaxRep(ctx *mpc.Ctx, w *wire) {
	p, ok := s.pend[w.Seq]
	if !ok || p.stage != stPathMax {
		return
	}
	p.replies++
	if w.Found && (!p.bestFound || w.W > p.bestW ||
		(w.W == p.bestW && (w.U < p.bestU || (w.U == p.bestU && w.V < p.bestV)))) {
		p.bestFound = true
		p.bestU, p.bestV, p.bestW = w.U, w.V, w.W
	}
	if p.replies < s.mu {
		return
	}
	if !p.bestFound || p.bestW <= int64(p.op.W) {
		// Keep the forest; the new edge becomes non-tree.
		s.sendAddNonTree(ctx, int32(p.op.U), int32(p.op.V), int64(p.op.W), p.compU, p.fU, p.fV)
		delete(s.pend, w.Seq)
		return
	}
	// Swap: cut the heaviest cycle edge (converting it to non-tree), then
	// link the new edge. The child interval lives on the evicted edge's
	// record at its owner; fetch it, then the component size.
	p.convert = true
	p.cutEdge = graph.NormEdge(int(p.bestU), int(p.bestV))
	p.cutW = p.bestW
	p.cutComp = p.compU
	p.newComp = int64(s.cfg.N) + 2*w.Seq + 1
	p.stage = stInterval
	ctx.Send(s.owner(p.bestU), &wire{
		Kind: kIntervalReq, U: p.bestU, V: p.bestV, Seq: w.Seq, ReplyTo: int32(s.id),
	}, 5)
}

func (s *shard) onIntervalReq(ctx *mpc.Ctx, w *wire) {
	e := graph.NormEdge(int(w.U), int(w.V))
	rec, ok := s.tree[e]
	if !ok {
		panic(fmt.Sprintf("dyncon: interval request for unknown tree edge %v at machine %d", e, s.id))
	}
	fy, ly := childInterval(&rec.pos)
	ctx.Send(int(w.ReplyTo), &wire{Kind: kIntervalRep, Seq: w.Seq, Fy: fy, LyCut: ly}, 5)
}

func (s *shard) onIntervalRep(ctx *mpc.Ctx, w *wire) {
	p, ok := s.pend[w.Seq]
	if !ok || p.stage != stInterval {
		return
	}
	p.fy, p.ly = w.Fy, w.LyCut
	p.stage = stSizeForSwapCut
	ctx.Send(int(s.registry(p.cutComp)), &wire{
		Kind: kSizeReq, Comp: p.cutComp, Seq: w.Seq, ReplyTo: int32(s.id),
	}, 5)
}

// broadcastLink computes the §5 insert plan (reroot of the guest tree,
// host tail shift, guest splice shift, the new edge's four positions) and
// broadcasts it. All parameters derive from the endpoint f/l values and
// component sizes, so one broadcast suffices.
func (s *shard) broadcastLink(ctx *mpc.Ctx, seq int64, x, y int32, w int64,
	compX, compY int64, sizeX, sizeY int, fx, lx, fy, ly int, promote bool) {

	q := 0
	switch {
	case sizeX == 1:
		q = 0
	case fx == 1: // x roots its tree
		q = 4 * (sizeX - 1)
	default:
		q = fx
	}
	Ly := 4 * (sizeY - 1)
	// The host's shift first, then the guest's: a position's label selects
	// which of them address it, so onDoLink hands each side its own part of
	// the chain (LinkHost must precede LinkGuest, which relabels to compX).
	shifts := make([]etour.Shift, 1, 3)
	shifts[0] = etour.Shift{Kind: etour.ShiftLinkHost, Comp: compX, NewComp: compX, A: q, B: Ly}
	if sizeY > 1 && fy != 1 {
		shifts = append(shifts, etour.Shift{Kind: etour.ShiftReroot, Comp: compY, NewComp: compY, A: Ly, B: ly})
	}
	shifts = append(shifts, etour.Shift{Kind: etour.ShiftLinkGuest, Comp: compY, NewComp: compX, A: q, B: Ly})
	e := graph.NormEdge(int(x), int(y))
	pos := etour.EdgePos{U: e.U, V: e.V}
	if e.U == int(x) {
		pos.UV = [2]int{q + 1, q + 2}
		pos.VU = [2]int{q + Ly + 3, q + Ly + 4}
	} else {
		pos.VU = [2]int{q + 1, q + 2}
		pos.UV = [2]int{q + Ly + 3, q + Ly + 4}
	}
	msg := &wire{
		Kind: kDoLink, Seq: seq, U: x, V: y, W: w,
		Comp: compX, Comp2: compY, Q: q, Ly: Ly,
		Size: sizeX + sizeY, Shifts: shifts, Pos: pos, Promote: promote,
	}
	ctx.Broadcast(msg, msg.words(), true)
}

// onDoLink applies a link broadcast to the local shard: hosts take the
// chain's LinkHost, guests the rest. A shard holding no vertex of either
// component holds no record of them and no endpoint, and is done after the
// two lookups — or none, for a side of one vertex (members).
func (s *shard) onDoLink(w *wire) {
	compX, compY := w.Comp, w.Comp2
	sizeY := w.Ly/4 + 1
	hosts := s.members(compX, w.Size-sizeY == 1, w.U, w.U)
	guests := s.members(compY, sizeY == 1, w.V, w.V)
	if len(hosts) > 0 || len(guests) > 0 {
		s.rewrite(w, hosts, w.Shifts[:1])
		s.rewrite(w, guests, w.Shifts[1:])
		// Guest vertices adopt the host's label.
		for _, v := range guests {
			s.verts[v] = compX
		}
		if len(guests) > 0 {
			s.compVerts[compX] = append(hosts, guests...)
			delete(s.compVerts, compY)
		}
		e := graph.NormEdge(int(w.U), int(w.V))
		if s.owner(w.U) == s.id || s.owner(w.V) == s.id {
			if w.Promote {
				s.removeNonTree(e)
			}
			s.addTree(e, &treeRec{pos: w.Pos, comp: compX, w: w.W})
		}
	}
	if s.registry(compX) == int32(s.id) {
		s.sizes[compX] = w.Size
	}
	if s.registry(compY) == int32(s.id) {
		delete(s.sizes, compY)
	}
}
