package staticmpc

import (
	"sort"

	"dmpc/internal/mpc"
)

// Distributed sample sort in a constant number of rounds (Goodrich et al.
// [19], which the paper invokes for the O(1)-round sorting step of its §5
// preprocessing): machine 0 gathers a sample, broadcasts µ-1 splitters,
// every machine routes its items to the owner of their bucket, and each
// machine sorts its bucket locally. The sorted sequence is the
// concatenation of the machines' buckets in machine order.

type sortMsg struct {
	kind  int32 // 0: sample contribution, 1: splitters, 2: routed items
	items []int64
}

type sortMachine struct {
	id         int
	items      []int64
	splitters  []int64
	phase      int32
	sampleAt   int // coordinator id
	oversample int
}

func (m *sortMachine) MemWords() int { return len(m.items) + len(m.splitters) }

func (m *sortMachine) HandleRound(ctx *mpc.Ctx, inbox []mpc.Message) {
	for _, msg := range inbox {
		sm, ok := msg.Payload.(sortMsg)
		if !ok {
			continue
		}
		switch sm.kind {
		case 0: // sample arrives at coordinator
			m.items = append(m.items, sm.items...)
		case 1:
			m.splitters = sm.items
		case 2:
			m.items = append(m.items, sm.items...)
		}
	}

	switch m.phase {
	case 0: // send a deterministic sample (every k-th local item) to coordinator
		sort.Slice(m.items, func(i, j int) bool { return m.items[i] < m.items[j] })
		step := len(m.items)/m.oversample + 1
		var sample []int64
		for i := 0; i < len(m.items); i += step {
			sample = append(sample, m.items[i])
		}
		ctx.Send(m.sampleAt, sortMsg{kind: 0, items: sample}, len(sample)+1)
	case 1: // coordinator: pick µ-1 splitters, broadcast
		sort.Slice(m.items, func(i, j int) bool { return m.items[i] < m.items[j] })
		mu := ctx.Machines()
		var spl []int64
		for k := 1; k < mu; k++ {
			idx := k * len(m.items) / mu
			if idx < len(m.items) {
				spl = append(spl, m.items[idx])
			}
		}
		ctx.Broadcast(sortMsg{kind: 1, items: spl}, len(spl)+1, true)
		m.items = nil // coordinator held only the sample
	case 2: // route local items by splitter bucket
		buckets := make(map[int][]int64)
		for _, x := range m.items {
			b := sort.Search(len(m.splitters), func(i int) bool { return m.splitters[i] > x })
			buckets[b] = append(buckets[b], x)
		}
		m.items = nil
		for b, xs := range buckets {
			ctx.Send(b, sortMsg{kind: 2, items: xs}, len(xs)+1)
		}
	case 3: // local sort of the received bucket
		sort.Slice(m.items, func(i, j int) bool { return m.items[i] < m.items[j] })
	}
	m.phase = -1
}

// Sort sorts items on a cluster of mu machines in a constant number of
// rounds, returning the sorted slice and the accounting.
func Sort(items []int64, mu int) ([]int64, mpc.HalfStats) {
	if mu < 2 {
		mu = 2
	}
	mem := 4*(len(items)/mu+1) + 8*mu + 16
	cl := mpc.NewCluster(mpc.Config{Machines: mu, MemWords: mem})
	machines := make([]*sortMachine, mu)
	for i := range machines {
		machines[i] = &sortMachine{id: i, phase: -1, sampleAt: 0, oversample: 4}
		cl.SetMachine(i, machines[i])
	}
	// The coordinator's own items would bias its sample buffer; keep data
	// machines 0..mu-1 all loaded, coordinator doubles as data machine but
	// samples before gathering.
	for i, x := range items {
		m := machines[i%mu]
		m.items = append(m.items, x)
	}

	cl.BeginMixed(1, 0, nil)
	// Phase A: samples to coordinator. The coordinator must not mix its
	// own data with the sample buffer: it contributes its sample first and
	// parks its data.
	parked := machines[0].items
	machines[0].items = nil
	step := len(parked)/machines[0].oversample + 1
	sortInt64(parked)
	for i := 0; i < len(parked); i += step {
		machines[0].items = append(machines[0].items, parked[i])
	}
	for i := 1; i < mu; i++ {
		machines[i].phase = 0
		cl.Schedule(i)
	}
	cl.Round()
	machines[0].phase = 1
	cl.Schedule(0)
	cl.Round() // splitters broadcast
	machines[0].items = parked
	for i := 0; i < mu; i++ {
		machines[i].phase = 2
		cl.Schedule(i)
	}
	cl.Round() // splitters received; route
	for i := 0; i < mu; i++ {
		machines[i].phase = 3
		cl.Schedule(i)
	}
	cl.Round() // buckets received; local sort
	stats := cl.EndMixed().Updates

	var out []int64
	for i := 0; i < mu; i++ {
		out = append(out, machines[i].items...)
	}
	return out, stats
}

func sortInt64(xs []int64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
