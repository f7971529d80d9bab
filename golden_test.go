// Golden fingerprints of complete EMTS runs. The other determinism tests are
// in-process A/B comparisons between switch settings of the same code; this
// one pins the search-visible output against values recorded once and
// committed, so a change that alters results in every configuration alike —
// or deletes a layer together with its A/B switch — still cannot slip
// through. Every perf layer is bit-identical by construction, so the
// recorded values only ever change when the search itself changes, and such
// a change must re-record them deliberately.
package emts_test

import (
	"fmt"
	"math"
	"testing"

	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
)

// runFingerprint condenses one core.Result into the values a caller can
// observe: the makespan's exact bits, FNV-1a hashes of the history's float
// bits, of the best allocation and of the mapped schedule (every entry's
// task, Start/End bits and processor indices), and every counter.
type runFingerprint struct {
	makespan, history, alloc, sched              uint64
	evals, rejects, prefilter, hits, generations int
}

func fingerprintOf(res *core.Result) runFingerprint {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, f := range res.History {
		mix(math.Float64bits(f))
	}
	hist := h
	h = 14695981039346656037
	for _, s := range res.Alloc {
		mix(uint64(s))
	}
	alloc := h
	h = 14695981039346656037
	for _, e := range res.Schedule.Entries {
		mix(uint64(e.Task))
		mix(math.Float64bits(e.Start))
		mix(math.Float64bits(e.End))
		mix(uint64(len(e.Procs)))
		for _, p := range e.Procs {
			mix(uint64(p))
		}
	}
	return runFingerprint{
		makespan:    math.Float64bits(res.Makespan),
		history:     hist,
		alloc:       alloc,
		sched:       h,
		evals:       res.Evaluations,
		rejects:     res.Rejections,
		prefilter:   res.PrefilterRejections,
		hits:        res.CacheHits,
		generations: res.Generations,
	}
}

// goldenGraphs returns the pinned instances, keyed as in goldenFingerprints:
// the 100-task irregular daggen graph of the instance benchmarks, a 300-task
// graph of the same class, and FFT-16. All run on Grelon (P = 120); the
// 100-task graph also runs on Chti (P = 20), so the processor sets of both
// paper clusters are pinned.
func goldenGraphs(t *testing.T) ([]string, []*dag.Graph) {
	t.Helper()
	var gs []*dag.Graph
	for _, n := range []int{100, 300} {
		g, err := daggen.Random(daggen.RandomConfig{
			N: n, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
		}, daggen.DefaultCosts(), 7)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	fft, err := daggen.FFT(16, daggen.DefaultCosts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return []string{"irregular100", "irregular300", "fft16"}, append(gs, fft)
}

// goldenFingerprints holds the recorded values, keyed graph/cluster/preset/
// rejection/islands, all with seed 1 under the synthetic model. No
// refactoring of the evaluation path may change them.
var goldenFingerprints = map[string]runFingerprint{
	"irregular100/grelon/emts5/rej=false/islands=1":  {0x4078e3e08d1473e3, 0x30158200502f5337, 0x8ac34d6da24f950b, 0x7b97f51a62eedd83, 130, 0, 0, 1, 5},
	"irregular100/grelon/emts5/rej=false/islands=2":  {0x4078f0dc81d7fc12, 0x6d2ef829507932ae, 0xa7fa8f01b8c86d90, 0x7ff2ffd95282fe91, 260, 0, 0, 2, 5},
	"irregular100/grelon/emts5/rej=true/islands=1":   {0x407a12cd5b3b8a7e, 0xdaf962f57c72d996, 0x89097cb76abbdec7, 0x7426411a01311a9a, 130, 121, 119, 1, 5},
	"irregular100/grelon/emts5/rej=true/islands=2":   {0x40781be017699963, 0x8a8b8f1f962b7fb8, 0x6adb8e9fea320f90, 0xbe053c9e58929aae, 260, 227, 222, 2, 5},
	"irregular100/grelon/emts10/rej=false/islands=1": {0x4078347ab524057b, 0x910a7c84edcdcdca, 0x1dde166d5040347b, 0xf1045458f982710d, 1010, 0, 0, 2, 10},
	"irregular100/grelon/emts10/rej=false/islands=2": {0x40773ad7b4b90397, 0x4d576d599b01d7b1, 0xf4d31e023732f442, 0x9d16cb43f2bacc38, 2020, 0, 0, 3, 10},
	"irregular100/grelon/emts10/rej=true/islands=1":  {0x40791239bd6073ee, 0xa8c4ab6da0c2d986, 0xaf82bb35e0676f72, 0xa70787d05ed3065e, 1010, 981, 981, 2, 10},
	"irregular100/grelon/emts10/rej=true/islands=2":  {0x4077482904369766, 0x2b786cea34a43ed9, 0x8165be88b421b7f8, 0xa44cd882bf92826, 2020, 1913, 1833, 3, 10},
	"irregular100/chti/emts5/rej=false/islands=1":    {0x4084d209eb711827, 0x6b4229a9237ad6ef, 0x6f7e009bb6e47972, 0xb11b3580c452401c, 130, 0, 0, 0, 5},
	"irregular100/chti/emts5/rej=false/islands=2":    {0x4084d209eb711827, 0x6b4229a9237ad6ef, 0x6f7e009bb6e47972, 0xb11b3580c452401c, 260, 0, 0, 0, 5},
	"irregular100/chti/emts5/rej=true/islands=1":     {0x4084d209eb711827, 0x6b4229a9237ad6ef, 0x6f7e009bb6e47972, 0xb11b3580c452401c, 130, 125, 97, 0, 5},
	"irregular100/chti/emts5/rej=true/islands=2":     {0x4084d209eb711827, 0x6b4229a9237ad6ef, 0x6f7e009bb6e47972, 0xb11b3580c452401c, 260, 250, 129, 0, 5},
	"irregular100/chti/emts10/rej=false/islands=1":   {0x4084d209eb711827, 0x32503f972371834, 0x6f7e009bb6e47972, 0xb11b3580c452401c, 1010, 0, 0, 1, 10},
	"irregular100/chti/emts10/rej=false/islands=2":   {0x40847db685256481, 0x71fd826907f94a44, 0x717d1661631f03a6, 0xb72ca7257aaae66a, 2020, 0, 0, 1, 10},
	"irregular100/chti/emts10/rej=true/islands=1":    {0x4084d209eb711827, 0x32503f972371834, 0x6f7e009bb6e47972, 0xb11b3580c452401c, 1010, 999, 868, 1, 10},
	"irregular100/chti/emts10/rej=true/islands=2":    {0x40847db685256481, 0x71fd826907f94a44, 0x717d1661631f03a6, 0xb72ca7257aaae66a, 2020, 1996, 1075, 1, 10},
	"irregular300/grelon/emts5/rej=false/islands=1":  {0x409224c7200042cc, 0x4772a89911b6ff05, 0xcae169011f2304e6, 0x25e0ec575371d139, 130, 0, 0, 1, 5},
	"irregular300/grelon/emts5/rej=false/islands=2":  {0x4091c90f7e6dc438, 0x2da06910ed89640a, 0x2b608d30f0e1a882, 0x14d96a295ee5ad60, 260, 0, 0, 2, 5},
	"irregular300/grelon/emts5/rej=true/islands=1":   {0x409224c7200042cc, 0x4772a89911b6ff05, 0xcae169011f2304e6, 0x25e0ec575371d139, 130, 125, 125, 1, 5},
	"irregular300/grelon/emts5/rej=true/islands=2":   {0x4092210b2316a859, 0x905227f20971e77, 0xa7c38d959fb71dd4, 0x6cfd06a968763cfe, 260, 247, 247, 2, 5},
	"irregular300/grelon/emts10/rej=false/islands=1": {0x409002d7fc062726, 0x564b729945407c52, 0xf6ce51d93c00ada6, 0xfcb2718b1135c5a0, 1010, 0, 0, 2, 10},
	"irregular300/grelon/emts10/rej=false/islands=2": {0x409066d815b547e1, 0x2b502410ff2a7675, 0x7002eab04dffe6cd, 0x5714fe88a9869f5b, 2020, 0, 0, 3, 10},
	"irregular300/grelon/emts10/rej=true/islands=1":  {0x40908e58a6e44d9e, 0x82a021b4b5563d97, 0x5b1d63b94973079b, 0x9e2ec37e37d9f668, 1010, 977, 977, 2, 10},
	"irregular300/grelon/emts10/rej=true/islands=2":  {0x40906071f81a4ee7, 0x807bcd9db585f56, 0xc85f85d089788ae2, 0x231da017f6526145, 2020, 1920, 1919, 3, 10},
	"fft16/grelon/emts5/rej=false/islands=1":         {0x407d09f7b1adecb6, 0xc519a79fe2422aa9, 0x6e08052b67c4dce, 0x1a581002cdfa8363, 130, 0, 0, 1, 5},
	"fft16/grelon/emts5/rej=false/islands=2":         {0x407c288df173601b, 0xe1cd9d19d35e15a, 0x1b548a546c56b161, 0xdb4363e92d6d42ed, 260, 0, 0, 2, 5},
	"fft16/grelon/emts5/rej=true/islands=1":          {0x407d09f7b1adecb6, 0xc519a79fe2422aa9, 0x6e08052b67c4dce, 0x1a581002cdfa8363, 130, 120, 120, 1, 5},
	"fft16/grelon/emts5/rej=true/islands=2":          {0x407d2196e17d434f, 0x519aff3bf887a3f6, 0xe98e58339a484b2f, 0xafd5863e131822, 260, 233, 233, 2, 5},
	"fft16/grelon/emts10/rej=false/islands=1":        {0x407a180480bb865e, 0x549d2ef4be25662d, 0x95fb0cfccc0c76ef, 0x888d599de1fa8cf3, 1010, 0, 0, 2, 10},
	"fft16/grelon/emts10/rej=false/islands=2":        {0x40797e3890fed649, 0x9c38e5fddeb427b4, 0x56c4f065a14b2f10, 0x10437285e39296c1, 2020, 0, 0, 3, 10},
	"fft16/grelon/emts10/rej=true/islands=1":         {0x407b45de4f475be2, 0xed707df50b1a5eb4, 0x8253160ccd35e3b, 0x8580b721fecb8571, 1010, 973, 970, 2, 10},
	"fft16/grelon/emts10/rej=true/islands=2":         {0x407af744dfeb6924, 0x3d9fe822f3af991d, 0xeb53ccbafd7e9be5, 0x7f7c9e4d9f62eb94, 2020, 1883, 1875, 3, 10},
}

func TestGoldenFingerprints(t *testing.T) {
	presets := []struct {
		name string
		mk   func(int64) core.Params
	}{
		{"emts5", core.EMTS5},
		{"emts10", core.EMTS10},
	}
	var missing []string
	names, graphs := goldenGraphs(t)
	for gi, g := range graphs {
		clusters := []platform.Cluster{platform.Grelon()}
		if names[gi] == "irregular100" {
			clusters = append(clusters, platform.Chti())
		}
		for _, cl := range clusters {
			tab, err := model.NewTable(g, model.Synthetic{}, cl)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range presets {
				for _, rej := range []bool{false, true} {
					for _, islands := range []int{1, 2} {
						p := pr.mk(1)
						p.UseRejection = rej
						p.Islands = islands
						res, err := core.Run(g, tab, p)
						if err != nil {
							t.Fatal(err)
						}
						if err := res.Schedule.Validate(g, tab); err != nil {
							t.Fatal(err)
						}
						key := fmt.Sprintf("%s/%s/%s/rej=%v/islands=%d", names[gi], cl.Name, pr.name, rej, islands)
						got := fingerprintOf(res)
						want, ok := goldenFingerprints[key]
						line := fmt.Sprintf("%q: {%#x, %#x, %#x, %#x, %d, %d, %d, %d, %d},", key,
							got.makespan, got.history, got.alloc, got.sched,
							got.evals, got.rejects, got.prefilter, got.hits, got.generations)
						switch {
						case !ok:
							missing = append(missing, line)
						case got != want:
							t.Errorf("%s: fingerprint changed\n got  %s\n want %+v", key, line, want)
						}
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("no recorded fingerprint for %d cases; recorded values would be:", len(missing))
		for _, l := range missing {
			t.Log(l)
		}
	}
}
