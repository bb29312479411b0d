package dyncon

import (
	"fmt"
	"slices"

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
	kDoLink                  // to holders: apply link shifts, add tree record
	kAddNonTree              // orchestrator -> owners: store a non-tree record
	kDelNonTree              // orchestrator -> owner: drop a non-tree record
	kDoCut                   // to holders: apply cut shifts, report candidates
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
	kJoin      // cut recipient -> registry(Comp): the sender now holds Comp
	kLeave     // cut recipient -> registry(Comp): the sender no longer holds Comp
)

// wire is the single message payload of the protocol; Kind selects which
// fields are meaningful. Words charged per message reflect the populated
// field count: O(1), plus one word per machine id of a holder list.
//
// Payloads travel as *wire and are immutable once sent: a link or cut hands
// one payload to every recipient, so a handler reads what it receives and
// never writes it — which is also what lets Miss be shared.
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
	// Flag marks a delete on kUpdate, and is the "all" flag of a holder set
	// (see holderSet): the component's on kSizeRep and kDoCut, the merged
	// one on kDoLink.
	Flag bool
	// Holders is a holder list: the component's on kSizeRep, the guest's on
	// kDoLink (for the host's registry; nil when the guest has one vertex).
	Holders []int32
	// Miss, on a gathering request (kDoCut, kPathMaxReq), is the reply of a
	// machine with nothing to report: the requester builds the one value its
	// receivers would each have built, and they send that.
	Miss *wire
}

// linkMsg and cutMsg hold a link's or a cut's payload together with what it
// points to — the shift chain, and a cut's shared miss — so each costs one
// allocation.
type linkMsg struct {
	wire
	shifts [3]etour.Shift
}

type cutMsg struct {
	wire
	shifts [3]etour.Shift
	miss   wire
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
	holdU, holdV       holderSet

	// cut state
	cutEdge  graph.Edge
	cutW     int64
	cutComp  int64
	newComp  int64
	fy, ly   int
	subSize  int
	restSize int
	convert  bool
	cutHold  holderSet // the cut component's, which a relink rejoins

	// pathmax / candidate collection
	expect    int // replies a gathering request waits for
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
	// vertices carrying it — so the relabel loops in onDoLink and onDoCut
	// walk only the touched component instead of scanning every owned
	// vertex (O(n/µ) per machine per link or cut, i.e. O(n)
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
	// record exists only between a cut and its relink, both of
	// which name both sides.
	tree    map[graph.Edge]*treeRec
	nontree map[graph.Edge]*ntRec
	adj     map[int32]filed
	sizes   map[int64]int
	pend    map[int64]*pending

	// holders is the rest of this machine's registry: the holder set of each
	// live component c of two or more vertices with registry(c) = id.
	// holderWords counts the machine ids its lists store, so MemWords stays
	// O(1); setHolders is its writer.
	holders     map[int64]holderSet
	holderWords int
	// to is the scratch recipient list of a link or cut this machine sends.
	to []int32

	// Tree-DP state (internal/treedp): one weight record per owned
	// weighted vertex, repaired on every link and cut, and DP query
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
		holders:   make(map[int64]holderSet),
		pend:      make(map[int64]*pending),
		weights:   make(map[int32]*treedp.Rec),
		qpend:     make(map[int64]*dpPending),
	}
}

func (s *shard) owner(v int32) int         { return int(v) % s.mu }
func (s *shard) registry(comp int64) int32 { return int32(comp % int64(s.mu)) }

func (s *shard) MemWords() int {
	return 2*len(s.verts) + 7*len(s.tree) + 7*len(s.nontree) + 2*len(s.sizes) + s.holderWords + 4*len(s.weights)
}

// holderSet is the set of machines owning at least one vertex of a
// component, as its registry keeps it and the protocol carries it: the
// ascending ids, or all — one flag packed into the size word, stored for a
// set of at least µ/2 machines and kept by a piece cut from such a set, so
// "all" is a superset that a link or cut answers with a full broadcast. A
// one-vertex component's set is implicit, its vertex's owner, and is the
// zero value. Lists are never written in place once stored or sent: every
// change builds a new one.
type holderSet struct {
	all bool
	ids []int32
}

// setHolders files comp's holder set — the zero value drops its entry —
// and keeps holderWords current.
func (s *shard) setHolders(comp int64, h holderSet) {
	s.holderWords += len(h.ids) - len(s.holders[comp].ids)
	if h.all || len(h.ids) > 0 {
		s.holders[comp] = h
	} else {
		delete(s.holders, comp)
	}
}

// held is a component's holder set with the implicit one made explicit:
// h, or {owner(v)} when the component is v alone.
func (s *shard) held(h holderSet, size int, v int32) holderSet {
	if size == 1 {
		return holderSet{ids: []int32{int32(s.owner(v))}}
	}
	return h
}

// union merges two holder sets into a fresh one, all once it reaches µ/2.
func (s *shard) union(a, b holderSet) holderSet {
	if a.all || b.all {
		return holderSet{all: true}
	}
	ids := append(append(make([]int32, 0, len(a.ids)+len(b.ids)), a.ids...), b.ids...)
	slices.Sort(ids)
	if ids = slices.Compact(ids); 2*len(ids) >= s.mu {
		return holderSet{all: true}
	}
	return holderSet{ids: ids}
}

// sendTo delivers msg to the holders of a and b — the machines that can
// hold records of the components it names — and to the registries r1 and
// r2, in ascending id order, or broadcasts it when a or b is all. Each copy
// is billed words, the one to r1 extra more (a holder list only r1 reads;
// a broadcast carries none). It returns the number of recipients.
func (s *shard) sendTo(ctx *mpc.Ctx, a, b holderSet, r1, r2 int32, msg *wire, words, extra int) int {
	if a.all || b.all {
		ctx.Broadcast(msg, words, true)
		return s.mu
	}
	s.to = append(append(append(s.to[:0], a.ids...), b.ids...), r1, r2)
	slices.Sort(s.to)
	s.to = slices.Compact(s.to)
	for _, to := range s.to {
		ctx.Send(int(to), msg, words+extra*b2i(to == r1))
	}
	return len(s.to)
}

// join and leave apply a cut recipient's holder change to comp's list
// here: the subtree's starts empty, the rest's is its parent's.
func (s *shard) join(comp int64, m int32) {
	s.setHolders(comp, s.union(s.holders[comp], holderSet{ids: []int32{m}}))
}

func (s *shard) leave(comp int64, m int32) {
	ids := slices.DeleteFunc(slices.Clone(s.holders[comp].ids), func(x int32) bool { return x == m })
	s.setHolders(comp, holderSet{ids: ids})
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
			h := s.holders[w.Comp]
			ctx.Send(int(w.ReplyTo), &wire{
				Kind: kSizeRep, Comp: w.Comp, Seq: w.Seq, Size: s.sizes[w.Comp],
				Flag: h.all, Holders: h.ids,
			}, 5+len(h.ids))
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
			ctx.Send(int(w.ReplyTo), s.onDoCut(ctx, w), 6)
		case kCandidate:
			s.onCandidate(ctx, w)
		case kJoin:
			s.join(w.Comp, int32(m.From))
		case kLeave:
			s.leave(w.Comp, int32(m.From))
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
		// Sizes of both sides are already known from the cut. The relink
		// rejoins its two pieces, so the cut component's holder set holds
		// each side and is exactly their union: both the recipients and the
		// host registry's merged set.
		sizeU, sizeV := p.restSize, p.subSize
		if p.compU == p.newComp {
			sizeU, sizeV = p.subSize, p.restSize
		}
		s.sendLink(ctx, w.Seq, p.relinkU, p.relinkV, p.relinkW,
			p.compU, p.compV, sizeU, sizeV, p.cutHold, p.cutHold, p.fU, p.lU, p.fV, p.lV, p.relinkPromote)
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
		hold := holderSet{all: w.Flag, ids: w.Holders}
		if w.Comp == p.compU {
			p.gotSizeU, p.sizeU, p.holdU = true, w.Size, hold
		}
		if w.Comp == p.compV {
			p.gotSizeV, p.sizeV, p.holdV = true, w.Size, hold
		}
		if !p.gotSizeU || !p.gotSizeV {
			return
		}
		s.sendLink(ctx, w.Seq, int32(p.op.U), int32(p.op.V), int64(p.op.W),
			p.compU, p.compV, p.sizeU, p.sizeV, p.holdU, p.holdV, p.fU, p.lU, p.fV, p.lV, false)
		delete(s.pend, w.Seq)
	case stSizeForCut, stSizeForSwapCut:
		size := w.Size
		L := 4 * (size - 1)
		p.subSize = (p.ly-p.fy-1)/4 + 1
		p.restSize = size - p.subSize
		m := &cutMsg{miss: wire{Kind: kCandidate, Seq: w.Seq}}
		m.shifts = [3]etour.Shift{
			{Kind: etour.ShiftCutRepair, Comp: p.cutComp, NewComp: p.newComp, A: p.fy, B: p.ly, C: L},
			{Kind: etour.ShiftCutSub, Comp: p.cutComp, NewComp: p.newComp, A: p.fy, B: p.ly},
			{Kind: etour.ShiftCutRest, Comp: p.cutComp, NewComp: p.cutComp, A: p.fy, B: p.ly},
		}
		p.replies = 0
		p.bestFound = false
		p.stage = stCandidates // a swap cut also collects its (empty) candidate replies
		p.cutHold = holderSet{all: w.Flag, ids: w.Holders}
		m.wire = wire{
			Kind: kDoCut, Seq: w.Seq,
			U: int32(p.cutEdge.U), V: int32(p.cutEdge.V), W: p.cutW,
			Comp: p.cutComp, Comp2: p.newComp,
			Fy: p.fy, LyCut: p.ly, TourLen: L,
			SubSize: p.subSize, RestSize: p.restSize,
			Shifts:  m.shifts[:],
			Convert: p.convert, NoReplace: p.convert,
			Flag:    p.cutHold.all,
			ReplyTo: int32(s.id),
			Miss:    &m.miss,
		}
		p.expect = s.sendTo(ctx, p.cutHold, holderSet{}, s.registry(p.cutComp), s.registry(p.newComp), &m.wire, m.words(), 0)
	}
}

// rewrite applies link or cut w to everything filed under members,
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

// onDoCut applies a cut to the local shard and returns its reply to the
// orchestrator: a replacement candidate, or w.Miss.
func (s *shard) onDoCut(ctx *mpc.Ctx, w *wire) *wire {
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
	members := s.compVerts[compOld]
	wasHolder := len(members) > 0
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
	// Registries: the sizes come with the cut. A one-vertex side stores no
	// holder set and a side cut from an all set stays all; otherwise the
	// rest keeps its parent's list and the subtree's starts empty, and each
	// machine whose membership changed corrects them with a leave or a join,
	// which lands in the round of the replies, whether or not a relink
	// follows.
	if s.registry(compOld) == int32(s.id) {
		s.sizes[compOld] = w.RestSize
		if w.RestSize == 1 {
			s.setHolders(compOld, holderSet{})
		}
	}
	if s.registry(compNew) == int32(s.id) {
		s.sizes[compNew] = w.SubSize
		s.setHolders(compNew, holderSet{all: w.Flag && w.SubSize > 1})
	}
	rest, sub := len(s.compVerts[compOld]) > 0, len(s.compVerts[compNew]) > 0
	if wasHolder && !w.Flag {
		if !rest && w.RestSize > 1 {
			s.notify(ctx, kLeave, compOld)
		}
		if sub && w.SubSize > 1 {
			s.notify(ctx, kJoin, compNew)
		}
	}
	if best == nil || w.NoReplace {
		return w.Miss
	}
	return &wire{Kind: kCandidate, Seq: w.Seq, Found: true, U: best.u, V: best.v, W: best.w}
}

// notify tells comp's registry that this machine joined or left comp: a
// two-word message, or a local update when the registry is this machine.
func (s *shard) notify(ctx *mpc.Ctx, k kind, comp int64) {
	r := s.registry(comp)
	switch {
	case r != int32(s.id):
		ctx.Send(int(r), &wire{Kind: k, Comp: comp}, 2)
	case k == kJoin:
		s.join(comp, r)
	default:
		s.leave(comp, r)
	}
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
	if p.replies < p.expect {
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

// sendLink computes the §5 insert plan (reroot of the guest tree, host tail
// shift, guest splice shift, the new edge's four positions) and sends it to
// the holders of both components and their registries. All parameters
// derive from the endpoint f/l values and component sizes, so one message
// suffices. The host's registry, which files the merged holder set, also
// reads the guest's set off it.
func (s *shard) sendLink(ctx *mpc.Ctx, seq int64, x, y int32, w int64,
	compX, compY int64, sizeX, sizeY int, holdX, holdY holderSet, fx, lx, fy, ly int, promote bool) {

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
	m := new(linkMsg)
	shifts := m.shifts[:1]
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
	m.wire = wire{
		Kind: kDoLink, Seq: seq, U: x, V: y, W: w,
		Comp: compX, Comp2: compY, Q: q, Ly: Ly,
		Size: sizeX + sizeY, Shifts: shifts, Pos: pos, Promote: promote,
	}
	msg := &m.wire
	hx, hy := s.held(holdX, sizeX, x), s.held(holdY, sizeY, y)
	if hx.all || hy.all {
		msg.Flag = true
	} else if sizeY > 1 {
		msg.Holders = holdY.ids
	}
	s.sendTo(ctx, hx, hy, s.registry(compX), s.registry(compY), msg, msg.words(), len(msg.Holders))
}

// onDoLink applies a link to the local shard: hosts take the chain's
// LinkHost, guests the rest; the host's registry files the merged size and
// holder set, the guest's drops its entry.
func (s *shard) onDoLink(w *wire) {
	compX, compY := w.Comp, w.Comp2
	hosts, guests := s.compVerts[compX], s.compVerts[compY]
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
	if s.owner(w.U) == s.id || s.owner(w.V) == s.id {
		e := graph.NormEdge(int(w.U), int(w.V))
		if w.Promote {
			s.removeNonTree(e)
		}
		s.addTree(e, &treeRec{pos: w.Pos, comp: compX, w: w.W})
	}
	if s.registry(compX) == int32(s.id) {
		merged := holderSet{all: true}
		if !w.Flag {
			sizeY := w.Ly/4 + 1
			hx := s.held(s.holders[compX], w.Size-sizeY, w.U)
			merged = s.union(hx, s.held(holderSet{ids: w.Holders}, sizeY, w.V))
		}
		s.sizes[compX] = w.Size
		s.setHolders(compX, merged)
	}
	if s.registry(compY) == int32(s.id) {
		delete(s.sizes, compY)
		s.setHolders(compY, holderSet{})
	}
}
