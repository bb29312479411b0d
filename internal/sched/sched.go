// Package sched is the shared wave scheduler of the batch-dynamic
// pipelines: it decides which ops of a stream may share a wave (Nowicki–
// Onak, arXiv:2002.07800 §3; Durfee et al., arXiv:1908.01956 frame the
// execution model). There is one packer, the Admitter, and every wave in
// the system — the cores' executed waves, the streaming front door's
// forming set and §6's endpoint-disjoint prefixes — is formed by it.
//
// A batch-dynamic algorithm describes each op as an Item naming the
// resources the op touches at schedule time. Resources come in three
// classes with different sharing rules:
//
//   - Exclusive keys (Item.Excl) are semantic state: dyncon's endpoint
//     component labels, dmm's endpoint vertices and their current mates.
//     Two ops sharing an exclusive key may interleave arbitrarily badly
//     (they read and write the same records), so they never share a wave
//     and must keep batch order across waves.
//
//   - Read keys (Item.Read) are the read-only view of semantic state: a
//     query names the components or vertices it observes. Readers of one
//     key never conflict with each other (reads commute), but a reader and
//     an exclusive writer of the same key must keep batch order — the
//     reader answers against exactly the prefix state its position
//     implies, so it may neither overtake a conflicting earlier write nor
//     share a wave with a conflicting later one. This is what sequences
//     queries *into* the update waves of a mixed op stream instead of
//     waiting for quiescence.
//
//   - Shared claims (Item.Shared) are capacity-limited machine resources:
//     the per-round word cap S of the machine a key names. Ops sharing
//     such a key commute semantically — colliding on dyncon's orchestrator
//     machine owner(U) mod µ only means two broadcasts would leave one
//     machine in one round — so they may share a wave as long as the sum of
//     their claimed costs stays within the budget.
//
// Item.Solo marks an op whose touch set cannot be bounded at schedule
// time (dmm's cascading rematch/surrogate chains): it conflicts with
// everything and runs as a singleton wave in batch position. Item.Tenant
// never affects conflicts; an optional Fair policy meters each tenant's
// shared cost against a weighted share of the budget.
//
// The rules are written once, in the Admitter's admit step: offered the
// items of a stream in order, it answers for each "may this op join the
// set already chosen?", and an op it refuses still records its exclusive
// and read claims (a refused Solo seals the set), so everything that
// conflicts with a refused op stays behind it and batch order survives.
// The first item offered to an empty set always joins, so every loop over
// the packer makes progress. Four call patterns sit on that one step:
//
//   - whole slice (Admitter.Wave): offer every pending item, execute the
//     admitted ones as a wave, re-read the remainder from live state —
//     executing a wave changes the resources later ops touch, so a wave is
//     valid only for the state its items were read from — and repeat. dmm
//     runs this loop, with its serial head-run policy on top.
//   - driven batch (Admitter.Drive): the same loop with the re-read made
//     incremental, under the contract below. Every item is read once; the
//     first wave is the whole-slice scan; what it leaves pending is indexed
//     by key, each later wave offers the admit step only the ops no earlier
//     pending op conflicts with — the only ones a whole-slice scan could
//     admit — and after a wave only the ops naming a key it dirtied are
//     read again. dyncon runs Drive.
//   - incremental (Admitter.Admit, flush on refusal, Reset): the streaming
//     Ingestor grows its forming set one arrival at a time.
//   - endpoint prefix (Admit until the first refusal over items with
//     Excl = {u, v}): amm's §6 injection waves.
//
// The contract Drive rests on: an op's Item depends only on state guarded
// by the keys it names (a Solo item names every key), and executing an item
// changes only state guarded by its exclusive keys — none at all if the
// item is Stable, anything if it is Solo. So a wave dirties the exclusive
// keys of its items that are not Stable (every key, after such a Solo), and
// a pending op naming none of them would read exactly the item the packer
// already holds. dyncon keeps the contract: an op reads its endpoints'
// component labels, which are its keys, and the tree/non-tree membership
// of its own edge, which only an update holding that component moves
// (checked by dyncon's AuditClaims in its equivalence suites). dmm does
// not — its shared costs read the global mean refresh suffix and
// per-machine cursor staleness, which every wave moves whatever it held —
// and therefore stays on Wave with a full re-read.
//
// Only the streaming Ingestor attaches a Fair policy; the cores pack
// first-fit. Every tenant's deficit is topped up once per forming set,
// when the set opens — at the first item offered after construction or
// Reset — which is once per flush.
package sched

// Claim is one capacity-limited resource claim: the update needs Cost
// words of key's per-round budget (typically: Key names a machine, Cost
// estimates the worst-round words the update makes that machine send).
type Claim struct {
	Key  int64
	Cost int
}

// Item describes one batch update's resource usage at schedule time. The
// zero Item conflicts with nothing and always joins the first wave.
type Item struct {
	// Excl are exclusive resource keys: updates sharing one never share a
	// wave and keep batch order.
	Excl []int64
	// Read are read-only resource keys: an item reading a key conflicts
	// with items holding the same key exclusively (batch order is kept),
	// but not with other readers of it.
	Read []int64
	// Shared are capacity-limited claims: updates sharing a key may share
	// a wave while their summed costs fit the budget.
	Shared []Claim
	// Solo marks an update whose touch set is unbounded at schedule time:
	// it conflicts with every other update.
	Solo bool
	// Tenant is the logical stream the op belongs to, set by the Ingestor
	// on the item it admits. It does not affect conflict semantics — only
	// how a Fair policy meters the op's shared cost against the tenant's
	// deficit (see Fair). Zero is the single-tenant default.
	Tenant int
	// Stable marks an op whose execution changes no state that any op's
	// Item is read from: Drive re-reads nothing on its account. Leaving it
	// unset is always safe.
	Stable bool
}
