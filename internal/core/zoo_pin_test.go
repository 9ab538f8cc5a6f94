package core_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/trace"
	"mpcp/internal/workload"
)

// pinShapes are the equivalence shapes plus one whose section lengths
// straddle FMLP+'s short/long cutoff of 4 ticks. A semaphore is short
// when its longest section is, so the straddle shape spreads fewer
// sections over more semaphores to leave some of them short.
var pinShapes = append(equivalenceShapes[:len(equivalenceShapes):len(equivalenceShapes)], struct {
	name   string
	config func(seed int64) workload.Config
}{"straddle", func(seed int64) workload.Config {
	cfg := workload.Default(seed)
	cfg.CSTicks = [2]int{1, 6}
	cfg.GcsPerTask = [2]int{1, 3}
	cfg.GlobalSems = 6
	cfg.UtilPerProc = 0.6
	return cfg
}})

// zooPins are SHA-256 digests of the spinning protocols' simulations
// (event log, execution matrix, per-task and per-processor statistics)
// and blocking bounds (with and without the deferred penalty) on every
// pin shape, seeds 1–8, both overload policies and both steppers. The
// msrp and fmlp digests were taken from standalone implementations of
// MSRP and FMLP+, so they certify that this package's per-semaphore
// settings reproduce those protocols byte for byte; the mpcp-spin
// digests certify that the non-preemptive settings leave MPCP's spin
// ablation alone. mpcp-spin has no bound, so its bounds digest only
// records the refusals.
var zooPins = map[string]string{
	"fmlp/hotspot/bounds":       "a87c79a623a956adc8def260769371dd8b8384ddd257971ba87c47fa9210c443",
	"fmlp/hotspot/sim":          "bd7e068eec45fbe1a3d55574ffd183617faf41117eae8e28d00b54c9d2ff7604",
	"fmlp/jittered/bounds":      "e8b2e86221d3c35d643fe09befe513e28690a1fc7b5fe8d7d1c11317a3bf765d",
	"fmlp/jittered/sim":         "b2df9bc3f72796800b17c100d14e7b724b2a322ce8a5060c168edd8138cd43ce",
	"fmlp/periodic/bounds":      "0762a37521bc5803defa9eda4b408f18a5c256ebae98b37cbeac35e12faca3cb",
	"fmlp/periodic/sim":         "5872ab6f4a5d059f1dd923d0836541feb3607abd4a15bd424005e0e3f4a96f96",
	"fmlp/sporadic/bounds":      "06451dceb52144ba2904d997dcab94d7c6d338ef4d02e23b5ef10032d995b2ea",
	"fmlp/sporadic/sim":         "b78eaf42891751f13a62ad0db489c5eedc00741d3833a9f2195216b1d250fd2a",
	"fmlp/straddle/bounds":      "d5808ae1c2490a807cf721a92a867f2651024e0d75aefc7b43a7646dfed07895",
	"fmlp/straddle/sim":         "10e298951ff003677fc11866cdb21e18a7049dfacee2b8fd21390ce72e0642e2",
	"mpcp-spin/hotspot/bounds":  "5793aa7b227fde226f0215d16efdcc62aece3e56bf5fec477411bb5531c22f80",
	"mpcp-spin/hotspot/sim":     "a6dfdca044a5062494da12c0bca6a783e9dc977c326e93835df6f1886e664055",
	"mpcp-spin/jittered/bounds": "5793aa7b227fde226f0215d16efdcc62aece3e56bf5fec477411bb5531c22f80",
	"mpcp-spin/jittered/sim":    "5878d37b744e97b06d12679954b8106e0c59a19d160e6f6a9ae860c27e648d80",
	"mpcp-spin/periodic/bounds": "5793aa7b227fde226f0215d16efdcc62aece3e56bf5fec477411bb5531c22f80",
	"mpcp-spin/periodic/sim":    "ff67a713f9a6c5135b4d307ff1727ed1095a4f6712877f06e734bc885917af75",
	"mpcp-spin/sporadic/bounds": "5793aa7b227fde226f0215d16efdcc62aece3e56bf5fec477411bb5531c22f80",
	"mpcp-spin/sporadic/sim":    "15e38bf4e535de3f5490c7b70d81ef64dd183a905de42d665c6b0a6a3f5e0851",
	"mpcp-spin/straddle/bounds": "5793aa7b227fde226f0215d16efdcc62aece3e56bf5fec477411bb5531c22f80",
	"mpcp-spin/straddle/sim":    "c20fcff128d214d64da35d3bc08b35a2ba516023e370343297a03a6401771dff",
	"msrp/hotspot/bounds":       "c80631767362dd6e40ef929a4066c18e6f99567cf57c461e3d78f8c57c3481f0",
	"msrp/hotspot/sim":          "a3ba5ec28f7abc953fb3f9bd45e1ab92a1d9ffc0a1ab6df6192e88d2db642b7c",
	"msrp/jittered/bounds":      "b2ac56fb53883220c7959befadf429c346962791d9d5e234379a3a3f58b63e5e",
	"msrp/jittered/sim":         "3a7630146054af450c1a220edbd635c4265df257652184ca8ec222672dfacabf",
	"msrp/periodic/bounds":      "d3ccec67cee8104f5c703ba082001c38c18760af6074b72cf2045b07f854163c",
	"msrp/periodic/sim":         "978a73aa53d235a8d8facf3cd843b7fd88b1c927788b9f7648945c86ef0a374b",
	"msrp/sporadic/bounds":      "d3ca1cd88b51fd0f46e9bc5593bd4021e7cdf761f8c3458d40e873b1c73b8caf",
	"msrp/sporadic/sim":         "4bb8d17276c6d7becdcceaafc9a521feca9b57c9d588eacbec328832d72151dc",
	"msrp/straddle/bounds":      "60c84501d4b9a07fb1df01f448908e373559d96abd181e227e93715608d9ccc2",
	"msrp/straddle/sim":         "41ca1b4125e36d2f6fcfa89e3e37d1d66fd3ec75f30671d6a746066ca2ea0b8a",
}

// writeRun hashes a simulation's full observable output. Every field
// is written by value with %d so no String method or pointer address
// leaks into the digest.
func writeRun(h hash.Hash, log *trace.Log, res *sim.Result) {
	for _, ev := range log.Events {
		fmt.Fprintf(h, "e %d %d %d %d %d %d %d\n", ev.Time, ev.Kind, ev.Task, ev.Job, ev.Proc, ev.Sem, ev.Prio)
	}
	for _, x := range log.Execs {
		fmt.Fprintf(h, "x %d %d %d %d %t %t\n", x.Time, x.Proc, x.Task, x.Job, x.InCS, x.InGCS)
	}
	ids := make([]task.ID, 0, len(res.Stats))
	for id := range res.Stats {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		fmt.Fprintf(h, "s %d %+v\n", id, *res.Stats[id])
	}
	for p, ps := range res.Procs {
		fmt.Fprintf(h, "p %d %+v\n", p, *ps)
	}
	fmt.Fprintf(h, "r %t %t %d\n", res.AnyMiss, res.Deadlock, res.DeadlockAt)
}

// zooDigests computes the simulation and bound digests of protocol name
// on one pin shape.
func zooDigests(t *testing.T, name string, config func(int64) workload.Config) (simDigest, boundDigest string) {
	t.Helper()
	hs, hb := sha256.New(), sha256.New()
	for seed := int64(1); seed <= 8; seed++ {
		sys, err := workload.Generate(config(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, policy := range []sim.OverloadPolicy{sim.OverloadContinue, sim.OverloadAbort} {
			for _, ref := range []bool{false, true} {
				p, err := registry.New(name, registry.Opts{})
				if err != nil {
					t.Fatal(err)
				}
				log := trace.New()
				e, err := sim.New(sys, p, sim.Config{Sink: log, Overload: policy, ReferenceStepper: ref})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(hs, "run seed=%d policy=%d ref=%t\n", seed, policy, ref)
				writeRun(hs, log, res)
			}
		}
		for _, deferred := range []bool{false, true} {
			bounds, err := registry.Analyze(name, sys, registry.Opts{DeferredPenalty: deferred})
			fmt.Fprintf(hb, "bounds seed=%d deferred=%t failed=%t\n", seed, deferred, err != nil)
			for _, tk := range sys.Tasks {
				if b := bounds[tk.ID]; b != nil {
					fmt.Fprintf(hb, "%+v\n", *b)
				}
			}
		}
	}
	return fmt.Sprintf("%x", hs.Sum(nil)), fmt.Sprintf("%x", hb.Sum(nil))
}

// TestSpinLockZooPinned: MSRP, FMLP+ and MPCP's spin ablation keep
// their pinned simulation and bound digests.
func TestSpinLockZooPinned(t *testing.T) {
	for _, name := range []string{"msrp", "fmlp", "mpcp-spin"} {
		for _, shape := range pinShapes {
			simDigest, boundDigest := zooDigests(t, name, shape.config)
			for key, got := range map[string]string{
				name + "/" + shape.name + "/sim":    simDigest,
				name + "/" + shape.name + "/bounds": boundDigest,
			} {
				if want := zooPins[key]; got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
