package lift_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/trace"
)

// sameWorkGolden pins what every lift of the corpus computes, kernel by
// kernel over several seeds and geometries: the localization outcome, the
// profiled memory trace, the instruction trace's size, the dump's bytes
// and each stage's canonical IR key.  A change to how the emulator is
// driven (how many runs, what each records) must leave every line intact.
const sameWorkGolden = "testdata/samework.golden"

var (
	sameWorkSeeds = []uint64{1, 7, 42, 1234}
	sameWorkGeoms = [][2]int{{40, 24}, {21, 9}, {32, 16}}
)

// sameWorkLine renders one lift's pinned facts.
func sameWorkLine(kernel string, cfg legacy.Config, res *lift.Result) string {
	loc := res.Loc
	var b strings.Builder
	fmt.Fprintf(&b, "%s %dx%d seed=%d entry=%#x cands=%#x on=%d off=%d diff=%d diffhash=%016x",
		kernel, cfg.Width, cfg.Height, cfg.Seed, loc.FilterEntry, loc.Candidates,
		loc.OnBlocks, loc.OffBlocks, len(loc.Diff), diffHash(loc.Diff))
	fmt.Fprintf(&b, " mem=%d memhash=%016x insts=%d steps=%d samples=%d dump=%016x",
		len(loc.MemTrace), memTraceHash(loc.MemTrace), res.TraceInsts, res.TraceSteps,
		res.Samples, dumpHash(res.Dump))
	for i := range res.Stages {
		fmt.Fprintf(&b, " ir%d=%s", i, stageKey(&res.Stages[i]))
	}
	return b.String()
}

// stageKey renders a stage's structural identity from ir.Expr keys.
func stageKey(st *lift.Stage) string {
	if r := st.Red; r != nil {
		return fmt.Sprintf("red{%dx%d bins=%d elem=%d delta=%d suffix=%t init=%016x idx=%s}",
			r.DomW, r.DomH, r.Bins, r.Elem, r.Delta, r.Suffix, u64Hash(r.Init), r.Index.Key())
	}
	k := st.Kernel
	keys := make([]string, len(k.Trees))
	for c, t := range k.Trees {
		keys[c] = t.Key()
	}
	return fmt.Sprintf("kern{%dx%dx%d origin=%d,%d map=%v,%v trees=%s}",
		k.OutWidth, k.OutHeight, k.Channels, k.OriginX, k.OriginY, k.MapX, k.MapY,
		strings.Join(keys, "|"))
}

func diffHash(diff map[uint32]bool) uint64 {
	addrs := make([]uint32, 0, len(diff))
	for a := range diff {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := fnv.New64a()
	for _, a := range addrs {
		binary.Write(h, binary.LittleEndian, a)
	}
	return h.Sum64()
}

func memTraceHash(mt []trace.MemAccess) uint64 {
	h := fnv.New64a()
	var buf [14]byte
	for _, a := range mt {
		binary.LittleEndian.PutUint64(buf[0:], a.Addr)
		binary.LittleEndian.PutUint32(buf[8:], a.InstAddr)
		buf[12] = a.Width
		buf[13] = 0
		if a.Write {
			buf[13] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// dumpHash hashes the dump's pages in ascending page order.
func dumpHash(d *trace.MemDump) uint64 {
	pages := make([]uint64, 0, len(d.Pages))
	for p := range d.Pages {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	h := fnv.New64a()
	for _, p := range pages {
		binary.Write(h, binary.LittleEndian, p)
		h.Write(d.Pages[p])
	}
	return h.Sum64()
}

func u64Hash(vs []uint64) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, vs)
	return h.Sum64()
}

// TestLiftSameWork lifts every corpus kernel at every pinned seed and
// geometry and compares the rendered facts with the committed golden,
// line for line.  On a mismatch the full rendering is written to a
// temporary file whose path the failure names, so an intended change is
// reviewed as a diff and copied over the golden by hand.
func TestLiftSameWork(t *testing.T) {
	raw, err := os.ReadFile(sameWorkGolden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	seeds := sameWorkSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	var got []string
	for _, k := range legacy.Kernels() {
		for _, geom := range sameWorkGeoms {
			for _, seed := range seeds {
				cfg := legacy.Config{Width: geom[0], Height: geom[1], Seed: seed}
				res, err := lift.Lift(k.Name, target(k.Instantiate(cfg)))
				if err != nil {
					t.Fatalf("%s %s: Lift: %v", k.Name, cfg, err)
				}
				got = append(got, sameWorkLine(k.Name, cfg, res))
			}
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("rendered %d lines, golden has %d", len(got), len(want))
	}
	wantByKey := make(map[string]string, len(want))
	for _, line := range want {
		wantByKey[lineKey(line)] = line
	}
	bad := 0
	for _, line := range got {
		w, ok := wantByKey[lineKey(line)]
		if !ok {
			t.Errorf("no golden line for %s", lineKey(line))
			bad++
		} else if w != line {
			t.Errorf("same-work drift:\n got:  %s\n want: %s", line, w)
			bad++
		}
		if bad >= 5 {
			break
		}
	}
	if t.Failed() {
		f, err := os.CreateTemp("", "samework-*.golden")
		if err == nil {
			f.WriteString(strings.Join(got, "\n") + "\n")
			f.Close()
			t.Logf("full rendering written to %s", f.Name())
		}
	}
}

// lineKey is a golden line's identity: kernel, geometry and seed.
func lineKey(line string) string {
	f := strings.Fields(line)
	return strings.Join(f[:min(3, len(f))], " ")
}

// TestLiftSameWorkConcurrent lifts the corpus from several goroutines at
// once, as heliumd's warm-up does, and holds every lift to its golden
// line: lifts that hand instruction traces to one another must not
// share one.
func TestLiftSameWorkConcurrent(t *testing.T) {
	raw, err := os.ReadFile(sameWorkGolden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		want[lineKey(line)] = line
	}
	cfg := legacy.Config{Width: sameWorkGeoms[0][0], Height: sameWorkGeoms[0][1], Seed: sameWorkSeeds[0]}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, k := range legacy.Kernels() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := lift.Lift(k.Name, target(k.Instantiate(cfg)))
				if err != nil {
					t.Errorf("%s: Lift: %v", k.Name, err)
					return
				}
				got := sameWorkLine(k.Name, cfg, res)
				if w := want[lineKey(got)]; got != w {
					t.Errorf("concurrent lift drifted:\n got:  %s\n want: %s", got, w)
				}
			}()
		}
	}
	wg.Wait()
}
