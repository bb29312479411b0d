package dmpc_test

import (
	"fmt"

	"dmpc"
)

// ExamplePipeline feeds one mixed op stream — writes and reads — through
// the unified front door. The reads are sequenced into the update waves
// and answered against exactly the prefix state their stream position
// implies: the first connectivity probe runs before the bridge insert and
// the second after it, so they answer differently even though both ride
// the same Apply call.
func ExamplePipeline() {
	cc := dmpc.NewConnectivity(8, 32)

	ops := []dmpc.Op{
		dmpc.Ins(0, 1),
		dmpc.Ins(2, 3),
		dmpc.QConnected(0, 3), // before the bridge: false
		dmpc.Ins(1, 2),        // the bridge
		dmpc.QConnected(0, 3), // after the bridge: true
		dmpc.Del(1, 2),
		dmpc.QConnected(0, 3), // bridge gone again: false
	}
	res, st := cc.Apply(ops)

	for i, a := range res {
		fmt.Printf("probe %d: %v\n", i, a.Bool)
	}
	fmt.Printf("ops: %d (%d updates + %d queries)\n",
		st.Ops, st.Updates.Ops, st.Queries.Ops)
	fmt.Printf("rounds partitioned: %v\n",
		st.Updates.Rounds+st.Queries.Rounds == st.Rounds())
	// Output:
	// probe 0: false
	// probe 1: true
	// probe 2: false
	// ops: 7 (4 updates + 3 queries)
	// rounds partitioned: true
}
