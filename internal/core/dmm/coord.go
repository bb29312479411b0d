package dmm

import (
	"errors"
	"fmt"
	"reflect"

	"dmpc/internal/mpc"
)

// ckind names the message kinds that share a payload type: the rare
// storage traffic (scans, moves, lists) and the §4 counters. Every
// storage-bound message carries the H suffix the target has not yet seen;
// every storage reply reports words reclaimed by lazy deletions, keeping
// the coordinator's free-space directory current.
type ckind int8

const (
	cScan    ckind = iota // MC -> storage: scan v's records for matching candidates
	cScanRep              // storage -> MC
	cMoveOut              // MC -> storage: ship v's records to a target
	cMoveIn               // storage -> storage: record payload
	cList                 // MC -> storage: report v's full records (§4)
	cListRep              // storage -> MC
	cCtrGet               // MC -> stats: batched free-neighbor counter reads (§4)
	cCtrRep               // stats -> MC
	cCtrAdd               // MC -> stats: batched counter deltas (no reply)
)

// hop describes one update-history entry. hMatched carries the heaviness
// of both endpoints at match time so storage machines can maintain the
// mate-heaviness mirror locally.
type hop int8

const (
	hEdgeIns hop = iota
	hEdgeDel
	hMatched
	hUnmatched
	hHeavyOn
	hHeavyOff
)

type hentry struct {
	op     hop
	a, b   int32
	ah, bh bool
}

// edgeRec is one stored edge copy: v's record of neighbor other, with a
// mirror of other's matching status, heaviness, and its mate's heaviness —
// all refreshed lazily through H.
type edgeRec struct {
	other     int32
	mate      int32
	matched   bool
	heavy     bool
	mateHeavy bool
}

const edgeWords = 7

// stat is the authoritative per-vertex record on a statistics machine.
// home is the light machine for light vertices and the alive machine for
// heavy ones (-1 when the vertex stores no edges).
type stat struct {
	deg       int32
	mate      int32 // -1 free
	home      int32
	aliveCnt  int32 // physical records on the alive machine (approximate)
	freeNbr   int32 // §4 free-neighbor counter
	heavy     bool
	suspended []int32
}

// Payloads. Every message travels as a pointer to one of the types below,
// each holding only the fields of the kinds it serves (TestPayloadSizes
// bounds them); the words a message bills are declared at its send. The
// per-update traffic — update and mateQuery from M's driver, statsReq,
// statsSet and storeMsg from MC, statsRep from the statistics machines —
// lives in its sender's mpc.Outbox, so those sends allocate nothing; the
// rarer kinds are boxed one by one. Every payload follows mpc.Outbox's
// rule: it is immutable once sent and valid until the end of the round
// after its send, and a receiver copies what it keeps — MC's flows keep
// typed reply copies, its serialize queue update values, a statistics
// machine its own copy of a suspended stack, and a counter reply its own
// vertex list. A slice a payload carries may be a view of state its
// sender never rewrites (an H suffix, a statistics machine's suspended
// stack), which a copy may keep. The -race replays at replicaWorkers
// check it.

// update is an external update at MC.
type update struct {
	Seq  int64
	A, B int32
	Del  bool
}

// mateQuery is an external mate query at V's statistics machine, which
// answers it; Seq is the read's stream position. Queries bypass MC
// entirely — the §3 query path needs one round, not the coordinator's
// serial pipeline.
type mateQuery struct {
	Seq int64
	V   int32
}

// statsReq asks V's statistics machine to apply a degree delta and reply
// with V's stat.
type statsReq struct {
	Seq      int64
	V        int32
	DegDelta int32
}

type statsRep struct {
	Seq int64
	St  stat // St.suspended is the reply's own copy, capped
	V   int32
}

// statsSet is one authoritative field write (no reply); suspSet replaces
// V's suspended stack.
type statsSet struct {
	V     int32
	Field sfield
	Val   int32
}

type sfield int8

const (
	fMate  sfield = iota
	fHeavy        // Val 0 or 1
	fHome
	fCnt
)

type suspSet struct {
	V    int32
	Susp []int32
}

// storeMsg replays H on a storage machine, then adds Rec to V's list (a
// store) or, on a refresh, only acks.
type storeMsg struct {
	H       []hentry
	V       int32
	Rec     edgeRec
	Refresh bool
}

// ack reports a storage machine's free-space delta to MC: Seq -1 for the
// unsolicited store and refresh bookkeeping, the flow's seq on a move,
// where Count is the number of records the target kept.
type ack struct {
	Seq                int64
	Target             int32 // the sender
	Freed, Used, Count int32
}

// storageReq is MC's rare storage traffic: replay H, then scan (cScan),
// ship (cMoveOut: to Target, which keeps Keep records and passes the rest
// to Overflow; -1 for all and none) or list (cList) V's records.
type storageReq struct {
	Seq                 int64
	H                   []hentry
	V, Target           int32
	Keep, Overflow      int32
	Exclude             int32 // scan: vertex to skip in free-neighbor searches (-1 none)
	Kind                ckind
	WantFree, WantSteal bool
}

// storageRep answers a storageReq: a scan's find (Rec: the free neighbor,
// or the neighbor to steal, whose mate is Rec.mate), a list's records, or
// — storage to storage — a move's records (cMoveIn, which carries the
// move's V, Keep and Overflow).
type storageRep struct {
	Seq                   int64
	Recs                  []edgeRec
	V, Target, Freed      int32 // Target: the sender
	Keep, Overflow        int32
	Rec                   edgeRec
	Kind                  ckind
	FoundFree, FoundSteal bool
}

// ctrMsg is §4 counter traffic: reads (cCtrGet, answered by a cCtrRep
// carrying the values in Ds) and deltas (cCtrAdd).
type ctrMsg struct {
	Seq    int64
	Vs, Ds []int32
	Kind   ckind
}

// What MC's sends declare: 14 words plus what the variable parts carry.
func (*statsReq) words() int     { return 14 }
func (*statsSet) words() int     { return 14 }
func (m *suspSet) words() int    { return 14 + len(m.Susp) }
func (m *storeMsg) words() int   { return 14 + 4*len(m.H) }
func (m *storageReq) words() int { return 14 + 4*len(m.H) }
func (m *ctrMsg) words() int     { return 14 + len(m.Vs) + len(m.Ds) }

// Machine kinds in the coordinator's directory.
const (
	mkFree int8 = iota
	mkLight
	mkExclusive
)

// coordinator is machine 0: the paper's MC.
type coordinator struct {
	mu       int
	numStats int
	statsPer int
	mem      int
	heavyAt  int
	aliveCap int

	// update-history ring: h holds the last hCap entries, h[0] at stream
	// position hBase. It is append-only by position — hAppend drops the
	// front by reslicing and never rewrites a written index — so the
	// suffixes suffixFor hands out are views, not copies.
	h     []hentry
	hBase int64
	hCap  int

	// lastSync is written by setSync only; syncSum is its running total.
	lastSync  []int64
	syncSum   int64
	freeWords []int32
	kindOf    []int8
	refreshAt int

	fallbacks int64

	// §4 state: per-update status flips (coalesced by parity) and the set
	// of vertices freed during the update (augmenting-path sweep
	// candidates).
	threeHalves bool
	flips       map[int32]flipInfo
	freed       map[int32]bool

	// Orchestration: one flow per in-flight update, keyed by its seq, so
	// endpoint-disjoint updates progress the §3 case analysis phase-
	// parallel within a wave. Solicited replies echo their update's seq
	// and route to its flow, which HandleRound resumes at its parked step
	// once they are all in; unsolicited acks (store/refresh bookkeeping)
	// carry -1 and only adjust the free-space directory. Every step and
	// helper takes the flow it runs for, so the orchestration code in
	// update.go stays written per update.
	inflight map[int64]*flow

	// free holds the finished flows begin reuses, each fully reset.
	free []*flow

	// serialize is the serial-segment mode ApplyOps' runChained drives:
	// updates arriving while one is in flight queue here and start in the
	// round the previous update finishes, overlapping each update's
	// injection and ack-tail rounds with its successor but never running
	// two case analyses concurrently. The queued updates are
	// queue[qHead:]; the queue keeps its capacity.
	serialize bool
	queue     []update
	qHead     int

	// MC's per-update sends live in these (see Payloads).
	reqs   mpc.Outbox[statsReq]
	sets   mpc.Outbox[statsSet]
	stores mpc.Outbox[storeMsg]
}

// step is one segment of an update's orchestration at MC. It runs when
// the replies it waits for are in, sends, and then parks its flow on the
// next step (await), hands over to another step or helper, or returns
// from the running helper (ret). Steps are coordinator methods named by
// method expression, so a parked flow captures nothing: whatever a step
// reads after a round trip lives on the flow.
type step func(c *coordinator, ctx *mpc.Ctx, fl *flow)

// flow is one in-flight update's resumable record at MC: which replies it
// is waiting for, the copies of those received since its last await, by
// type and in arrival order, the step that resumes when they are all in,
// the return stack of the helpers it is running (a helper pushes where it
// returns to on entry and leaves through ret), and the operands and
// scratch its steps keep across rounds. Between updates a flow sits in
// coordinator.free with all of it reset (idle audits that).
type flow struct {
	seq     int64
	waiting int
	got     int
	stats   []statsRep
	acks    []ack
	stores  []storageRep
	ctrs    []ctrMsg
	next    step
	rets    []step
	op      flowOps

	// Helper scratch, empty between updates and kept by capacity: the
	// machines a scan visits or a transition drains; §4's flush list (each
	// vertex beside its neighbors' counter delta), sweep candidates, and an
	// augmenting-path search's neighbor mates, the neighbor record behind
	// each, and the mates worth a rotation attempt.
	machines      []int32
	pending, dirs []int32
	sweep         []int32
	mates         []int32
	partner       map[int32]edgeRec
	rot           []rotCand
}

// flowOps is what an update's steps read across rounds. It is zero
// between updates.
type flowOps struct {
	x, y                   int32 // the update's endpoints
	sx, sy                 stat  // their stats, kept current as the update changes them
	wasMatched             bool  // a delete of a matched edge
	xMateHeavy, yMateHeavy bool  // an insert's mirror bits: each endpoint's mate is heavy

	// The running §3 helper's: the vertex it serves and that vertex's
	// heaviness, the stat a transition or store updates in place (&sx or
	// &sy), where records go, the record to store, the next machine to
	// scan.
	v                int32
	heavy            bool
	s                *stat
	target, overflow int32
	rec              edgeRec
	mi               int

	// §4: the next flush entry, sweep candidate and rotation candidate;
	// a length-3 augmenting path's free end z, the matched w it takes and
	// w's mate, with their heaviness; a scan's excluded vertex; and what
	// the scan found: a free neighbor q of the mate.
	pi, si, ri                int
	z, w, mate                int32
	zHeavy, wHeavy, mateHeavy bool
	excl, q                   int32
	qHeavy, found             bool
}

// rotCand is a rotation candidate: a neighbor's mate and its
// free-neighbor counter.
type rotCand struct{ mate, ctr int32 }

// emptyReplies drops the flow's replies, keeping their capacity.
func (fl *flow) emptyReplies() {
	clear(fl.stats)
	clear(fl.acks)
	clear(fl.stores)
	clear(fl.ctrs)
	fl.got, fl.stats, fl.acks, fl.stores, fl.ctrs = 0, fl.stats[:0], fl.acks[:0], fl.stores[:0], fl.ctrs[:0]
}

// retire resets everything the finished update left on the flow, keeping
// the capacity of its lists, so the next update starts from nothing.
func (fl *flow) retire() {
	fl.emptyReplies()
	clear(fl.partner)
	fl.seq, fl.waiting, fl.next, fl.rets, fl.op = 0, 0, nil, fl.rets[:0], flowOps{}
	fl.machines, fl.pending, fl.dirs = fl.machines[:0], fl.pending[:0], fl.dirs[:0]
	fl.sweep, fl.mates, fl.rot = fl.sweep[:0], fl.mates[:0], fl.rot[:0]
}

// idle reports what a pooled flow still holds, nil if nothing.
func (fl *flow) idle() error {
	switch {
	case fl.next != nil:
		return errors.New("a parked step")
	case len(fl.rets) > 0:
		return fmt.Errorf("%d return steps", len(fl.rets))
	case fl.seq != 0 || fl.waiting != 0 || fl.got != 0 || len(fl.stats)+len(fl.acks)+len(fl.stores)+len(fl.ctrs) > 0:
		return fmt.Errorf("replies (seq %d, awaiting %d, %d in)", fl.seq, fl.waiting, fl.got)
	case !reflect.ValueOf(fl.op).IsZero():
		return fmt.Errorf("operands %+v", fl.op)
	case len(fl.machines)+len(fl.pending)+len(fl.dirs)+len(fl.sweep)+len(fl.mates)+len(fl.partner)+len(fl.rot) > 0:
		return errors.New("helper scratch")
	}
	return nil
}

// push records where the helper about to run returns to.
func (fl *flow) push(ret step) { fl.rets = append(fl.rets, ret) }

// pop takes the running helper's return step off the stack — to run it,
// or to hand it on to a helper the running one finishes with.
func (fl *flow) pop() step {
	n := len(fl.rets) - 1
	ret := fl.rets[n]
	fl.rets = fl.rets[:n]
	return ret
}

func newCoordinator(cfg Config, mu, numStats, statsPer, mem, heavyAt, aliveCap int) *coordinator {
	c := &coordinator{
		mu: mu, numStats: numStats, statsPer: statsPer, mem: mem,
		heavyAt: heavyAt, aliveCap: aliveCap,
		hCap:        12*mu + 128,
		lastSync:    make([]int64, mu),
		freeWords:   make([]int32, mu),
		kindOf:      make([]int8, mu),
		threeHalves: cfg.ThreeHalves,
		flips:       make(map[int32]flipInfo),
		freed:       make(map[int32]bool),
		inflight:    make(map[int64]*flow),
	}
	for i := c.firstStore(); i < mu; i++ {
		c.freeWords[i] = int32(mem)
		c.kindOf[i] = mkFree
	}
	return c
}

func (c *coordinator) firstStore() int { return 1 + c.numStats }

func (c *coordinator) MemWords() int {
	return len(c.h)*4 + len(c.lastSync)*2 + len(c.freeWords) + 4*c.queued() + 8*len(c.inflight) + 16
}

// queued is the number of updates waiting in the serialize queue.
func (c *coordinator) queued() int { return len(c.queue) - c.qHead }

func (c *coordinator) statsOf(v int32) int32 { return 1 + v/int32(c.statsPer) }

func (c *coordinator) hAppend(e hentry) {
	c.h = append(c.h, e)
	if len(c.h) > c.hCap {
		drop := len(c.h) - c.hCap
		for m := c.firstStore(); m < c.mu; m++ {
			if c.lastSync[m] < c.hBase+int64(drop) {
				panic(fmt.Sprintf("dmm: machine %d fell behind the update-history ring", m))
			}
		}
		c.h = c.h[drop:]
		c.hBase += int64(drop)
	}
}

func (c *coordinator) hEnd() int64 { return c.hBase + int64(len(c.h)) }

func (c *coordinator) setSync(m int32, pos int64) {
	c.syncSum += pos - c.lastSync[m]
	c.lastSync[m] = pos
}

// suffixFor returns the H entries machine m has not seen and advances its
// cursor. The result is a read-only view of the ring, capped so nothing can
// append into it: later hAppends write past its end or into a fresh array.
func (c *coordinator) suffixFor(m int32) []hentry {
	ls := c.lastSync[m]
	if ls < c.hBase {
		panic(fmt.Sprintf("dmm: machine %d lost history (sync %d < base %d)", m, ls, c.hBase))
	}
	c.setSync(m, c.hEnd())
	return c.h[ls-c.hBase : len(c.h) : len(c.h)]
}

// suffixLen reports how many H entries machine m has not yet seen, without
// advancing its cursor — the driver-side cost estimate for the need-to-know
// suffix the next message to m will carry (the batch scheduler's MC budget
// claim).
func (c *coordinator) suffixLen(m int32) int {
	return int(c.hEnd() - c.lastSync[m])
}

// meanStoreSuffix averages suffixLen over the storage pool — the expected
// per-refresh suffix cost, charged per wave member because every finishing
// update refreshes one round-robin machine.
func (c *coordinator) meanStoreSuffix() int {
	n := c.mu - c.firstStore()
	if n <= 0 {
		return 0
	}
	// Σ (end − lastSync[m]) over the pool; the cursors below it stay 0.
	return int((int64(n)*c.hEnd() - c.syncSum) / int64(n))
}

// deletedInH reports whether machine mach's copy of edge (v,other) has a
// pending lazy deletion: an hEdgeDel the machine has not replayed yet. A
// later re-insert does not revive the copy — its record is stored anew,
// possibly on another of v's machines (driver-side validation helper).
func (c *coordinator) deletedInH(mach, v, other int32) bool {
	for _, e := range c.h[c.lastSync[mach]-c.hBase:] {
		if e.op == hEdgeDel && ((e.a == v && e.b == other) || (e.a == other && e.b == v)) {
			return true
		}
	}
	return false
}

// allocate claims a machine: first-fit light sharing or a fresh exclusive.
func (c *coordinator) allocate(kind int8, need int32) int32 {
	if kind == mkLight {
		for m := c.firstStore(); m < c.mu; m++ {
			if c.kindOf[m] == mkLight && c.freeWords[m] >= need {
				return int32(m)
			}
		}
	}
	for m := c.firstStore(); m < c.mu; m++ {
		if c.kindOf[m] == mkFree {
			c.kindOf[m] = kind
			c.freeWords[m] = int32(c.mem)
			// A fresh machine holds nothing, so its history cursor starts
			// at the present.
			c.setSync(int32(m), c.hEnd())
			return int32(m)
		}
	}
	panic("dmm: storage pool exhausted")
}

// release returns an exclusive machine to the pool.
func (c *coordinator) release(m int32) {
	c.kindOf[m] = mkFree
	c.freeWords[m] = int32(c.mem)
	c.setSync(m, c.hEnd())
}

// await parks fl until n replies carrying its seq arrive, for HandleRound
// to resume it at next; with nothing to wait for, next runs at once.
func (c *coordinator) await(ctx *mpc.Ctx, fl *flow, n int, next step) {
	if n == 0 {
		next(c, ctx, fl)
		return
	}
	fl.emptyReplies()
	fl.waiting = n
	fl.next = next
}

// ret returns from fl's running helper to the step its caller pushed.
func (c *coordinator) ret(ctx *mpc.Ctx, fl *flow) { fl.pop()(c, ctx, fl) }

func (c *coordinator) send(ctx *mpc.Ctx, to int32, m interface{ words() int }) {
	ctx.Send(int(to), m, m.words())
}

// sendStore ships an edge record with the target's H suffix; no reply.
func (c *coordinator) sendStore(ctx *mpc.Ctx, target, v int32, rec edgeRec) {
	m := storeMsg{V: v, Rec: rec, H: c.suffixFor(target)}
	c.stores.Send(ctx, int(target), m, m.words())
	c.freeWords[target] -= edgeWords
}

// refresh ships machine target its H suffix; it acks with what it
// reclaimed.
func (c *coordinator) refresh(ctx *mpc.Ctx, target int32) {
	m := storeMsg{H: c.suffixFor(target), Refresh: true}
	c.stores.Send(ctx, int(target), m, m.words())
}

func (c *coordinator) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, raw := range inbox {
		var fl *flow // nil for seq -1: an unsolicited bookkeeping ack
		switch m := raw.Payload.(type) {
		case *update:
			if c.serialize && len(c.inflight) > 0 {
				c.queue = append(c.queue, *m)
				continue
			}
			c.begin(ctx, *m)
			continue
		case *ack: // free-space deltas ride on every storage reply
			c.freeWords[m.Target] += m.Freed - m.Used
			if fl = c.inflight[m.Seq]; fl != nil {
				fl.acks = append(fl.acks, *m)
			}
		case *storageRep:
			c.freeWords[m.Target] += m.Freed
			if fl = c.inflight[m.Seq]; fl != nil {
				fl.stores = append(fl.stores, *m)
			}
		case *statsRep:
			if fl = c.inflight[m.Seq]; fl != nil {
				fl.stats = append(fl.stats, *m)
			}
		case *ctrMsg:
			if fl = c.inflight[m.Seq]; fl != nil {
				fl.ctrs = append(fl.ctrs, *m)
			}
		}
		if fl == nil {
			continue
		}
		fl.got++
		if fl.next != nil && fl.got >= fl.waiting {
			next := fl.next
			fl.next = nil
			next(c, ctx, fl)
		}
	}
}

// begin opens a flow for the update, reusing a finished one, and starts
// its case analysis in the current round.
func (c *coordinator) begin(ctx *mpc.Ctx, m update) {
	var fl *flow
	if n := len(c.free); n > 0 {
		fl, c.free = c.free[n-1], c.free[:n-1]
	} else {
		fl = new(flow)
	}
	fl.seq = m.Seq
	c.inflight[m.Seq] = fl
	fl.op.x, fl.op.y = m.A, m.B
	c.startUpdate(ctx, fl, m.Del)
}

func (fl *flow) statOf(v int32) stat {
	for i := range fl.stats {
		if r := &fl.stats[i]; r.V == v {
			return r.St
		}
	}
	panic(fmt.Sprintf("dmm: missing stats reply for %d", v))
}

func (fl *flow) scanRep() *storageRep {
	for i := range fl.stores {
		if r := &fl.stores[i]; r.Kind == cScanRep {
			return r
		}
	}
	panic("dmm: missing scan reply")
}

func (fl *flow) ackCount(target int32) int32 {
	for _, r := range fl.acks {
		if r.Target == target {
			return r.Count
		}
	}
	return 0
}

// statsSet helpers: authoritative field writes.

func (c *coordinator) setField(ctx *mpc.Ctx, v int32, f sfield, val int32) {
	m := statsSet{V: v, Field: f, Val: val}
	c.sets.Send(ctx, int(c.statsOf(v)), m, m.words())
}

func (c *coordinator) setMate(ctx *mpc.Ctx, v, mate int32) { c.setField(ctx, v, fMate, mate) }

func (c *coordinator) setHome(ctx *mpc.Ctx, v, home int32) { c.setField(ctx, v, fHome, home) }

func (c *coordinator) setCnt(ctx *mpc.Ctx, v, cnt int32) { c.setField(ctx, v, fCnt, cnt) }

// setSusp sends v's suspended stack as it stands: a flow's stack is a
// statistics machine's immutable view or one MC appended to, and MC
// never rewrites an element it has sent. The statistics machine copies it.
func (c *coordinator) setSusp(ctx *mpc.Ctx, v int32, susp []int32) {
	c.send(ctx, c.statsOf(v), &suspSet{V: v, Susp: susp})
}

// flipInfo coalesces a vertex's matching-status flips within one update;
// only the parity and the original status matter, because the adjacency is
// constant after the update's single edge event.
type flipInfo struct {
	origFree bool
	flips    int
}

func (c *coordinator) noteFlip(v int32, wasFree bool) {
	if !c.threeHalves {
		return
	}
	fi, ok := c.flips[v]
	if !ok {
		fi.origFree = wasFree
	}
	fi.flips++
	c.flips[v] = fi
}

// matchPair records (v,w) as matched: H entry (with heaviness bits for the
// mirrors) plus authoritative mate writes.
func (c *coordinator) matchPair(ctx *mpc.Ctx, v, w int32, vHeavy, wHeavy bool) {
	c.hAppend(hentry{op: hMatched, a: v, b: w, ah: vHeavy, bh: wHeavy})
	c.setMate(ctx, v, w)
	c.setMate(ctx, w, v)
	c.noteFlip(v, true)
	c.noteFlip(w, true)
	if c.threeHalves {
		delete(c.freed, v)
		delete(c.freed, w)
	}
}

// unmatchPair records (v,w) as unmatched.
func (c *coordinator) unmatchPair(ctx *mpc.Ctx, v, w int32) {
	c.hAppend(hentry{op: hUnmatched, a: v, b: w})
	c.setMate(ctx, v, -1)
	c.setMate(ctx, w, -1)
	c.noteFlip(v, false)
	c.noteFlip(w, false)
	if c.threeHalves {
		c.freed[v] = true
		c.freed[w] = true
	}
}

// finishUpdate closes the update: in §4 mode it first flushes the pending
// counter flips, sweeps for length-3 augmenting paths and flushes again;
// it always ends with the round-robin refresh that keeps every storage
// machine within O(√N) updates of the history.
func (c *coordinator) finishUpdate(ctx *mpc.Ctx, fl *flow) {
	if c.threeHalves {
		c.counterFlush(ctx, fl, (*coordinator).finishFlushed)
		return
	}
	c.closeUpdate(ctx, fl)
}

func (c *coordinator) finishFlushed(ctx *mpc.Ctx, fl *flow) {
	c.augSweep(ctx, fl, (*coordinator).finishSwept)
}

func (c *coordinator) finishSwept(ctx *mpc.Ctx, fl *flow) {
	c.counterFlush(ctx, fl, (*coordinator).closeUpdate)
}

func (c *coordinator) closeUpdate(ctx *mpc.Ctx, fl *flow) {
	c.refreshOne(ctx)
	c.updateDone(ctx, fl)
}

// updateDone retires fl to the pool and, in serialize mode, chains the
// next queued update into the current round: its first stats requests
// leave in the same round as the finished update's final writes and
// refresh, so a chained batch of k updates pays the injection and ack-tail
// rounds once instead of k times. In wave mode the queue is never used —
// the driver injects each conflict-free wave in one round and every member
// opens its own flow on arrival.
func (c *coordinator) updateDone(ctx *mpc.Ctx, fl *flow) {
	delete(c.inflight, fl.seq)
	fl.retire()
	c.free = append(c.free, fl)
	if c.queued() == 0 {
		return
	}
	m := c.queue[c.qHead]
	if c.qHead++; c.qHead == len(c.queue) {
		c.queue, c.qHead = c.queue[:0], 0
	}
	c.begin(ctx, m)
}

func (c *coordinator) refreshOne(ctx *mpc.Ctx) {
	n := c.mu - c.firstStore()
	if n > 0 {
		m := int32(c.firstStore() + c.refreshAt%n)
		c.refreshAt++
		c.refresh(ctx, m)
	}
}
