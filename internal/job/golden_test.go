package job_test

import (
	"runtime"
	"testing"
	"time"

	"encmpi/internal/cluster"
	"encmpi/internal/costmodel"
	"encmpi/internal/encmpi"
	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/simnet"
)

// goldenStep runs one step of the paper's 64-rank / 8-node collective
// experiment (Bcast 256 KiB, Allgather 16 KiB, Alltoall 16 KiB per block)
// under the boringssl/gcc485/256 cost model on Eth10G.
func goldenStep(t *testing.T) job.SimResult {
	t.Helper()
	profile, err := costmodel.Lookup("boringssl", "gcc485", 256)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.RunSim(cluster.PaperTestbed(64, 8), simnet.Eth10G(), func(c *mpi.Comm) {
		e := encmpi.Wrap(c, encmpi.NewModelEngine(profile))
		var root mpi.Buffer
		if c.Rank() == 0 {
			root = mpi.Synthetic(256 << 10)
		}
		got, err := e.Bcast(0, root)
		if err != nil {
			panic(err)
		}
		got.Release()
		gathered, err := e.Allgather(mpi.Synthetic(16 << 10))
		if err != nil {
			panic(err)
		}
		send := make([]mpi.Buffer, c.Size())
		for i := range send {
			send[i] = mpi.Synthetic(16 << 10)
		}
		all, err := e.Alltoall(send)
		if err != nil {
			panic(err)
		}
		for _, b := range append(gathered, all...) {
			b.Release()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSimGoldenDeterminism pins the simulator's execution order: the event
// count and every rank's final virtual clock must equal the constants
// recorded before the engine's scheduling core was rewritten, whatever
// GOMAXPROCS is and however often the job is repeated.
func TestSimGoldenDeterminism(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for run := 0; run < 3; run++ {
			res := goldenStep(t)
			if res.Events != goldenEvents {
				t.Errorf("GOMAXPROCS=%d run %d: Events = %d, want %d", procs, run, res.Events, goldenEvents)
			}
			for rank, got := range res.RankElapsed {
				if got != goldenRankElapsed[rank] {
					t.Errorf("GOMAXPROCS=%d run %d: rank %d finished at %d ns, want %d",
						procs, run, rank, got, goldenRankElapsed[rank])
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// Recorded at commit cae150d (container/heap engine goroutine), in ns.
const goldenEvents = 49618

var goldenRankElapsed = [64]time.Duration{
	12521834, 12493618, 12487470, 12558010, 12614442, 12656766, 12684982, 12699090,
	12395894, 12508758, 12607514, 12678054, 12734486, 12776810, 12805026, 12819134,
	12663946, 12692162, 12706270, 12720378, 12734486, 12748594, 12762702, 12776810,
	12424110, 12508758, 12579298, 12635730, 12692162, 12734486, 12762702, 12776810,
	12635730, 12678054, 12706270, 12720378, 12734486, 12748594, 12762702, 12776810,
	12353570, 12466434, 12565190, 12635730, 12692162, 12734486, 12762702, 12776810,
	12663946, 12692162, 12706270, 12720378, 12734486, 12748594, 12762702, 12776810,
	12356522, 12441170, 12511710, 12568142, 12624574, 12666898, 12695114, 12709222,
}
