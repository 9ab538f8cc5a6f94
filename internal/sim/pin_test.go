package sim_test

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

// stepperPins are SHA-256 digests of every visible registered protocol's
// simulations on every dispatch shape (single-processor, local-only for
// the uniprocessor-only protocols), seeds 1–4, both overload policies,
// one digest per stepper. Each run contributes its JSONL trace stream,
// its per-task and per-processor statistics, its verdicts and skipped
// ticks, and every job's waiting counters and finish time.
var stepperPins = map[string]string{
	"dpcp/hotspot/fast":                "5ced7adb7072496a3cb99b429b32f1bf46f1cb6d4abcbda5eede5030d42ea5ab",
	"dpcp/hotspot/reference":           "7899c5d85ef4fca6664e2c255676e1ccc510791cec2c526d52bac327e4c5bf9e",
	"dpcp/jittered/fast":               "c43838f3312baa1f32932549ec819aee9e877b209055006946ca3e9ec5af7051",
	"dpcp/jittered/reference":          "d02f094cae909aa1b2e65b9814450c141e67edc973d460d20a230e27d614ab09",
	"dpcp/periodic/fast":               "4d8acb6b6326492d6ebf9d6c82efe185bffe4223e31432ea51eacdb697030f65",
	"dpcp/periodic/reference":          "f70b446f04f83cc99a4e792efcf5b95dbf14555270b3ddae463b775869232710",
	"dpcp/sporadic/fast":               "9ba39435fea9c7b4f2b7618d987024629aa7cb7f52a7ecdd525b324837200219",
	"dpcp/sporadic/reference":          "46bcf3666c0bef123ae32696c402070129b01c0c57c34148732ae6433a261fb4",
	"fmlp/hotspot/fast":                "850d068107e42923d2de0e985372c1809873d3656b45dfb16767ad20563ada7d",
	"fmlp/hotspot/reference":           "0c203566cfa92f043b218dfe27d4995b05f7ee8527502f27140a574243abf06e",
	"fmlp/jittered/fast":               "fe035dde9538f2bf92f6149e0c3bf9ee358f26c03adfa64e0f21d6e6bc4f25fd",
	"fmlp/jittered/reference":          "b267f73f7ea942333ce4b637b1dbf3e65fca56bbb89127c3c4c2d14a2d6cad80",
	"fmlp/periodic/fast":               "4ccec193331bc8f37dc6e2c8b7e765485ce82c6c92c9952e52fddfed97435548",
	"fmlp/periodic/reference":          "5052bdba93edd6114631a2429a447036f9865d9cfed5704504dca72ff2fc1c0b",
	"fmlp/sporadic/fast":               "7828309359eed7d092f2ba72f7b46e7f32ee251829b84424aacbb558a02e3239",
	"fmlp/sporadic/reference":          "537ec396d94a65d7e4181301a2d9b0212bac9c9263dfc47c9ca11829643f8b56",
	"hybrid/hotspot/fast":              "4dec4252c518ace76dc556ff3dec5f06725462bf38445cc4cdccf7f641044a2b",
	"hybrid/hotspot/reference":         "8e08003052cf0e21205c7c3e5c7d5f4c96f2592771d27c70463740ea78aad1fb",
	"hybrid/jittered/fast":             "50dc7a28ec9eb6897e2b332aa12c0709727ba906f138958e25aa073f08d3534a",
	"hybrid/jittered/reference":        "2d57d60d2ec3e9dd4e45e8e28f3aff1f89ec4ee46d2b062e82daee3345f9105f",
	"hybrid/periodic/fast":             "2691b8b89e087e0037d3203508c91ecb29fb3be686c3b0bc0dcda540284be311",
	"hybrid/periodic/reference":        "c960911e773df6de505975820a87f2c197874ec2ae30dcd5a9272d0778794a7c",
	"hybrid/sporadic/fast":             "0240bf3ed45a27fceddb411de09332039277f890c3c6fa316bdb61e5f9f2e3a4",
	"hybrid/sporadic/reference":        "c77bdb10457bebae5e59e877616b32906c0c02abcb97813e29e23cd44a8f4752",
	"inherit/hotspot/fast":             "08f2278727968b8d91b2c4a5f6c4ae2b1449f7cf1a04e4fc9b0e31acbe521ad5",
	"inherit/hotspot/reference":        "73f6a7e9f8033d63db2f7139f70c2cd1ebacceafe73806f1cfd88577f173a540",
	"inherit/jittered/fast":            "2a18ac385d8d0be342c2ed745ec6e1530133687200d650e460e7e6e7335a30e1",
	"inherit/jittered/reference":       "9c016888ed1b8fdfec7e89622dbbc09c8fd7745a8cc3aab2c962b9f447054aa2",
	"inherit/periodic/fast":            "773c7e31373bd2e505357b8c78925662b2e78f93b8aec7aa00c9afc48b7e4848",
	"inherit/periodic/reference":       "037125d5b3d7e4142a8faf7a7a8272aed3f281a5b2e20562e30ae5f9b3fa1a90",
	"inherit/sporadic/fast":            "6d874fa8a9e6b8cd965b71d944f642c3219ccc56199e8b09e1419c543385d760",
	"inherit/sporadic/reference":       "bf0709edb682398c6c7caa18f07a3f340703809a153dbc81d25f4001b447f22b",
	"mpcp-ceil/hotspot/fast":           "9848eda692d114ba73fbba8bbb28f8327df999be55f03ad667b634d48b8f5d8b",
	"mpcp-ceil/hotspot/reference":      "de94144b0a1559a1d71a29c4769c3d317e7f196a720bfe59a5057b27a383126c",
	"mpcp-ceil/jittered/fast":          "f2d7a900dccffff6d507f2dfccd5f92adf8b1a54f2c95a6711de4db22abe47ae",
	"mpcp-ceil/jittered/reference":     "7c7ef16d4291bca8587e8912996bb21949cdc2d8896e310005b389a764270bd0",
	"mpcp-ceil/periodic/fast":          "0998b1e6f53b50be3def2b52c3fb8bab37605cffc6f0ae2c698bf7a1ddceb39d",
	"mpcp-ceil/periodic/reference":     "2d239142b96444fb3f5831e60a70d0d0c1916f4dd72b4a188b1d443559205da2",
	"mpcp-ceil/sporadic/fast":          "5ef9023b503c1d74912dc5d2bc72f613874ed5b47b27c7b955c413da6b2e4dba",
	"mpcp-ceil/sporadic/reference":     "abd44ee528bf52a28e25d40efc51bb235a67943b70f843b7b371d36d269d2a01",
	"mpcp-fifo/hotspot/fast":           "9bbb71456dbd0f19b55b1a316bc914ea490e87ce34f5d3a6a4d8c3167b53cded",
	"mpcp-fifo/hotspot/reference":      "4bcba4037eb307b6288097d8bcd2287c4808b4b2fc9c921e78a8340c4f4c9240",
	"mpcp-fifo/jittered/fast":          "bd7ae0940b85406cad267ece372855d75c5a5d2d2e3175fe1ae1b4d66e0290d0",
	"mpcp-fifo/jittered/reference":     "56dae2caf7a7fa53d6342b6fa9857428d0070d7a2e3d7287bbad006bff9c5efd",
	"mpcp-fifo/periodic/fast":          "3d0dfcc8e84c54545e04dd28afca601fb1a3a29c4a91825b143d9ca67b586941",
	"mpcp-fifo/periodic/reference":     "c611b594030363747a6d14d2252f40efa9464b08bc165dfb11954fd2371c3be7",
	"mpcp-fifo/sporadic/fast":          "500c1803fcc6d8f7402c3559065712cdc27a2fb7cc77483f60da76adcac4ea74",
	"mpcp-fifo/sporadic/reference":     "26ec5145d61d1b396a68f0d55a8e1432e095a2ac8fc0c2d0f39d75c629cc0347",
	"mpcp-spin/hotspot/fast":           "7b53aba38d81450ff29b603c8ce9cd88d442a69605b0edf272413f6d5480219a",
	"mpcp-spin/hotspot/reference":      "b238a1ccb97b674f5b7a2cf9523e5f13aa14a08fd3ae659635cbed0d24d05a42",
	"mpcp-spin/jittered/fast":          "a12174b15bed58633f3095a99edbe3e472661a4ea92ca3e0ec62a603f42a6df0",
	"mpcp-spin/jittered/reference":     "e2d4ff7a84b15c7472861e5dfd7d49597c7eef0e385736a227fc528e7e25bbfe",
	"mpcp-spin/periodic/fast":          "cad097a56f37786bb8d41bb8927cd48deded42497cd1cbc464958207e14cc0b2",
	"mpcp-spin/periodic/reference":     "b0207839238a1a1bdb67433f8ab95a7a1a33f10473198a69c383883994407708",
	"mpcp-spin/sporadic/fast":          "dfc54a88eb92e04dba026d36ee14f0d4bcca078e9e12598367c338d585418b77",
	"mpcp-spin/sporadic/reference":     "c731596c89fb37f5052b61a6a5e10372131f59b2f3d71ce81c4841877a8b5071",
	"mpcp/hotspot/fast":                "4dec4252c518ace76dc556ff3dec5f06725462bf38445cc4cdccf7f641044a2b",
	"mpcp/hotspot/reference":           "8e08003052cf0e21205c7c3e5c7d5f4c96f2592771d27c70463740ea78aad1fb",
	"mpcp/jittered/fast":               "bd7ae0940b85406cad267ece372855d75c5a5d2d2e3175fe1ae1b4d66e0290d0",
	"mpcp/jittered/reference":          "56dae2caf7a7fa53d6342b6fa9857428d0070d7a2e3d7287bbad006bff9c5efd",
	"mpcp/periodic/fast":               "3d0dfcc8e84c54545e04dd28afca601fb1a3a29c4a91825b143d9ca67b586941",
	"mpcp/periodic/reference":          "c611b594030363747a6d14d2252f40efa9464b08bc165dfb11954fd2371c3be7",
	"mpcp/sporadic/fast":               "500c1803fcc6d8f7402c3559065712cdc27a2fb7cc77483f60da76adcac4ea74",
	"mpcp/sporadic/reference":          "26ec5145d61d1b396a68f0d55a8e1432e095a2ac8fc0c2d0f39d75c629cc0347",
	"msrp/hotspot/fast":                "5b94b908b687f7cf774628504aee0713605918c47a7bf0a1923762ce1b9d8daa",
	"msrp/hotspot/reference":           "041f17e5ffb3669c9ad5b3cca2eb027a3f1dfa45e4cd7e32dbc4173c4efd8167",
	"msrp/jittered/fast":               "201280eccff184adb8808969f831a19f9a45b3293bd9cd6c4919f685f307f07c",
	"msrp/jittered/reference":          "d76a97e6df440c15155d96610e7aaa4fd7ed9fbb37619e62d1b30c729e0bae95",
	"msrp/periodic/fast":               "2bd2244152c1a1bbc634ce2bf7e16c3316ba1a7c3a30ee283b43f62285773e16",
	"msrp/periodic/reference":          "231d37d83eeb2e656476fa14456edd11e1eac143cd6004bd918bafe509efefa6",
	"msrp/sporadic/fast":               "0bddeea2d9b25f5cc45a524e32d84e11af7f3103b78238890cc24943c0d760f5",
	"msrp/sporadic/reference":          "29fe77d77d31d54b86df390758309a1542438eb373110bf2806a94bfef34c71f",
	"none-prio/hotspot/fast":           "69be25c6d7375c486cf4ed980ed664172bd01e3490a0a371412ee02969f8bad3",
	"none-prio/hotspot/reference":      "b8680815100403d872b0f56ca5254d9ecb6889c99685ab6cfd0cc84eaf5bc0c4",
	"none-prio/jittered/fast":          "db0005f379f9e63e518ea976d2e61e0339acc210b10eb8481d39c60c916ba604",
	"none-prio/jittered/reference":     "8a1778e3e1d17a64f1052c6c43acf4b49871023d3756a95214369908204844f2",
	"none-prio/periodic/fast":          "0eb02b2f846ae7bddcc90993d819031793215ff0a454db48287189ec15ac55ec",
	"none-prio/periodic/reference":     "48fbcfb16bc330fd00a9ac16135f40c2a29866da46a16f883c12eedad4e61f6d",
	"none-prio/sporadic/fast":          "7ffd5d2db9bb1c5e0e8bb3b9017694f0cfb682a8d361f432d590976bbcbe7224",
	"none-prio/sporadic/reference":     "6e3dae6d04b07e560c632f1e7171e382c587cd9cb6d1e55d7396271b4b307005",
	"none/hotspot/fast":                "48ada6f02abe75b286423e7ae81318c2e50872ffc5748fc196f66f32800148a7",
	"none/hotspot/reference":           "d212a626efabcb0a3a6d5a212d7cd6fdfc3e4933d85c7eb3b645b171f5723778",
	"none/jittered/fast":               "db0005f379f9e63e518ea976d2e61e0339acc210b10eb8481d39c60c916ba604",
	"none/jittered/reference":          "8a1778e3e1d17a64f1052c6c43acf4b49871023d3756a95214369908204844f2",
	"none/periodic/fast":               "0eb02b2f846ae7bddcc90993d819031793215ff0a454db48287189ec15ac55ec",
	"none/periodic/reference":          "48fbcfb16bc330fd00a9ac16135f40c2a29866da46a16f883c12eedad4e61f6d",
	"none/sporadic/fast":               "7ffd5d2db9bb1c5e0e8bb3b9017694f0cfb682a8d361f432d590976bbcbe7224",
	"none/sporadic/reference":          "6e3dae6d04b07e560c632f1e7171e382c587cd9cb6d1e55d7396271b4b307005",
	"pcp-immediate/hotspot/fast":       "131aaef9d3d6ada423ce24a9d71ce831b8376337781ab7823fdcefccdf351f55",
	"pcp-immediate/hotspot/reference":  "4766e14f02da1a080fd5bb1456731d3e72a6b63cd1948f491f41889b9d88091d",
	"pcp-immediate/jittered/fast":      "27185ab458fc2ff13fc755931ae522142416da12fd29417cd68aadcf5a598260",
	"pcp-immediate/jittered/reference": "fe16a787d8fe4cf1a450b243058b2753be0e15f211710b26cf6e6400d33cc2ea",
	"pcp-immediate/periodic/fast":      "7080195ddc6c27e417efb083e335e99118979f9eeb9aab05bc33a3a391b653b7",
	"pcp-immediate/periodic/reference": "3f175bf95552d9a1b6da1325089fff032c6a087a49f53646fd61d45fb700e679",
	"pcp-immediate/sporadic/fast":      "c43d87105b8e7161e36779cf95edeeafe1595e6b6e83615a78270e3534217e45",
	"pcp-immediate/sporadic/reference": "4f300f211cf58ef2221d78ed7902ae47874e090ca2c3a2f4646fdb2e08c7ee0c",
	"pcp/hotspot/fast":                 "2fcd439ad4729a579f45dcb34acdd238f057f837bf070ce71a3fa8b87e5bb35b",
	"pcp/hotspot/reference":            "f2b2d51b86bac0ae06a188df6761dad29800029b74fa7368b07daf0445b4664d",
	"pcp/jittered/fast":                "c9175dbbb4ef594990cc97bfe7899e96bf9c457e98814a6e7d88b8d96f60f235",
	"pcp/jittered/reference":           "46c03f0eadf7596d8da2bd93fb752c94e871bcb974c9a87e48a9045d3d573999",
	"pcp/periodic/fast":                "51899b8cc9616ba045fe3fa99cb4a6d991761d1aaac6f7131ff3eda33e7eaff2",
	"pcp/periodic/reference":           "fb5997f8521d70d53f1b729f5765b650f3dc743270db4b1ce3e43a28dccea8dc",
	"pcp/sporadic/fast":                "f893b502bd0897bc82523248a57bcf6f6601fb62a1af240d5c9393fb796c43d9",
	"pcp/sporadic/reference":           "da64c93f74652f51f61ce25249100867d360e19feca440c625f37c098d4cb1d3",
}

// hashStepperRun simulates one system under protocol name and writes the
// run's full observable output into h. Every field is written by value
// with %d or %+v of a dereferenced struct, so no pointer leaks in.
func hashStepperRun(t *testing.T, h hash.Hash, name string, sys *task.System, cfg sim.Config) {
	t.Helper()
	p, err := registry.New(name, registry.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewStreamSink(h)
	cfg.Sink = sink
	cfg.RetainJobs = true
	e, err := sim.New(sys, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
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
	fmt.Fprintf(h, "r %d %t %t %d\n", res.TicksSkipped, res.AnyMiss, res.Deadlock, res.DeadlockAt)
	for _, j := range res.Jobs {
		fmt.Fprintf(h, "j %d %d %d %d %d %d %d %d %d\n", j.Task.ID, j.Index,
			j.BlockedTicks, j.SuspendedTicks, j.SpinTicks, j.InversionTicks,
			j.PreemptTicks, j.RemoteExecTicks, j.FinishTime)
	}
}

// TestStepperPinned: both steppers keep their pinned traces, statistics
// and per-job waiting accounts on every visible protocol and shape.
func TestStepperPinned(t *testing.T) {
	got := map[string]string{}
	for _, name := range registry.Names() {
		caps, _ := registry.CapsFor(name)
		for _, shape := range dispatchShapes {
			for _, reference := range []bool{false, true} {
				h := sha256.New()
				for seed := int64(1); seed <= 4; seed++ {
					wcfg := shape.config(seed)
					if caps.UniprocOnly {
						wcfg.NumProcs = 1
						wcfg.GlobalSems = 0
						wcfg.GcsPerTask = [2]int{0, 0}
						wcfg.LcsPerTask = [2]int{1, 2}
					}
					sys, err := workload.Generate(wcfg)
					if err != nil {
						t.Fatalf("%s seed %d: %v", shape.name, seed, err)
					}
					for _, policy := range []sim.OverloadPolicy{sim.OverloadContinue, sim.OverloadAbort} {
						fmt.Fprintf(h, "run seed=%d policy=%d\n", seed, policy)
						hashStepperRun(t, h, name, sys, sim.Config{Overload: policy, ReferenceStepper: reference})
					}
				}
				stepper := "fast"
				if reference {
					stepper = "reference"
				}
				got[name+"/"+shape.name+"/"+stepper] = fmt.Sprintf("%x", h.Sum(nil))
			}
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want := stepperPins[k]; got[k] != want {
			t.Errorf("%s: digest %s, want %s", k, got[k], want)
		}
	}
	for k := range stepperPins {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but not run", k)
		}
	}
}
