package fuzzgen

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"helium/internal/faultpoint"
	"helium/internal/lift"
)

// corpusSize returns the smoke corpus size: HELIUM_FUZZ_N when set, 200
// by default (the CI smoke budget), less under -short.
func corpusSize(t *testing.T) int {
	if s := os.Getenv("HELIUM_FUZZ_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad HELIUM_FUZZ_N=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 40
	}
	return 200
}

// runCorpus fans the seeds across workers and returns the reports.
func runCorpus(seeds []uint64) []Report {
	reports := make([]Report, len(seeds))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, seed := range seeds {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, seed uint64) {
			defer wg.Done()
			defer func() { <-sem }()
			reports[i] = Run(NewSpec(seed))
		}(i, seed)
	}
	wg.Wait()
	return reports
}

// TestSmokeCorpus is the pipeline's randomized end-to-end contract check:
// N seeded random binaries, each either verified bit-exact on every
// backend or rejected with a typed diagnostic.  Panics, untyped errors,
// wrong answers and generator bugs all fail, and supported shapes must
// actually verify (a rejection there means the canonicalizer regressed
// against some obfuscation mix).
func TestSmokeCorpus(t *testing.T) {
	n := corpusSize(t)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	counts := map[Outcome]int{}
	shapes := map[Shape]int{}
	reports := runCorpus(seeds)
	if n == smokeGoldenN {
		checkSmokeGolden(t, reports)
	}
	for _, rep := range reports {
		counts[rep.Outcome]++
		if !rep.Ok() {
			t.Errorf("%s", rep)
			continue
		}
		if rep.Spec.Shape.Supported() && rep.Outcome != OutcomeVerified {
			t.Errorf("supported shape not verified: %s", rep)
		}
		if !rep.Spec.Shape.Supported() && rep.Outcome != OutcomeRejected {
			t.Errorf("unsupported shape not rejected: %s", rep)
		}
		if rep.Outcome == OutcomeVerified {
			shapes[rep.Spec.Shape]++
		}
	}
	t.Logf("corpus of %d: %d verified, %d rejected; verified by shape: %v", n,
		counts[OutcomeVerified], counts[OutcomeRejected], shapes)
	if counts[OutcomeVerified] == 0 || counts[OutcomeRejected] == 0 {
		t.Fatalf("degenerate corpus: %v", counts)
	}
}

// smokeGolden pins Report.String() of the default-size smoke corpus, one
// line per seed: outcomes, rejection phases and diagnostic text alike.
const (
	smokeGolden  = "testdata/smoke_reports.golden"
	smokeGoldenN = 200
)

// checkSmokeGolden compares the corpus reports with the pinned golden.  On
// a mismatch the full rendering is written to a temporary file whose path
// the failure names, so an intended change is reviewed as a diff and
// copied over the golden by hand.
func checkSmokeGolden(t *testing.T, reports []Report) {
	t.Helper()
	got := make([]string, len(reports))
	for i, rep := range reports {
		got[i] = rep.String()
	}
	raw, err := os.ReadFile(smokeGolden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Errorf("rendered %d reports, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := 0; i < min(len(got), len(want)) && bad < 5; i++ {
		if got[i] != want[i] {
			t.Errorf("seed %d report drifted:\n got:  %s\n want: %s", i+1, got[i], want[i])
			bad++
		}
	}
	if t.Failed() {
		if f, err := os.CreateTemp("", "smoke_reports-*.golden"); err == nil {
			f.WriteString(strings.Join(got, "\n") + "\n")
			f.Close()
			t.Logf("full rendering written to %s", f.Name())
		}
	}
}

// TestEveryShapeEveryObfuscation pins one seed per (shape, unroll) pair so
// a regression in any single family is named directly instead of sampled.
func TestEveryShapeEveryObfuscation(t *testing.T) {
	for shape := Shape(0); shape < numShapes; shape++ {
		for seed := uint64(1); seed <= 6; seed++ {
			spec := NewSpecShaped(seed*977, shape)
			t.Run(spec.Name(), func(t *testing.T) {
				t.Parallel()
				rep := Run(spec)
				if !rep.Ok() {
					t.Fatalf("%s", rep)
				}
				if spec.Shape.Supported() != (rep.Outcome == OutcomeVerified) {
					t.Fatalf("unexpected outcome: %s", rep)
				}
			})
		}
	}
}

// TestRejectionDiagnosticsSurvive asserts the PR-4 diagnostic contract on
// fuzz-generated unsupported shapes: the rejection must come from the
// right phase, name the offending instruction or arithmetic, and suggest
// the nearest supported pattern — not just fail, and never panic.  The
// quad and partial-table rows sit just outside the affine index-map and
// reduction-consuming patterns respectively.
func TestRejectionDiagnosticsSurvive(t *testing.T) {
	cases := []struct {
		shape Shape
		phase lift.Phase
		wants []string
	}{
		{ShapeUnsupportedJS, lift.PhaseExtract,
			[]string{"js", "nearest supported pattern"}},
		{ShapeUnsupportedAdc, lift.PhaseExtract,
			[]string{"adc", "nearest supported pattern", "carry"}},
		// Non-affine index arithmetic (src[x*x]): the translation unifier
		// fails, the affine refit names the tap bases that fit no a*x+b.
		{ShapeUnsupportedQuad, lift.PhaseUnify,
			[]string{"do not fit an affine map", "not affine in the output coordinate"}},
		// A stage consuming a partially written reduction table: the
		// extractor names the premature read and the ordering rule.
		{ShapeUnsupportedPartialTable, lift.PhaseExtract,
			[]string{"reads the reduction table", "before the table is fully written",
				"a consuming stage must run after the whole reduction"}},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			spec := NewSpecShaped(seed*1301, tc.shape)
			t.Run(spec.Name(), func(t *testing.T) {
				rep := Run(spec)
				if rep.Outcome != OutcomeRejected {
					t.Fatalf("want rejection, got %s", rep)
				}
				if rep.Phase != tc.phase {
					t.Errorf("rejected at phase %s, want %s", rep.Phase, tc.phase)
				}
				msg := rep.Err.Error()
				for _, want := range tc.wants {
					if !strings.Contains(msg, want) {
						t.Errorf("diagnostic %q does not mention %q", msg, want)
					}
				}
			})
		}
	}
}

// TestReplayRegressions replays the committed failing-seed fixtures.
// Each line of testdata/regressions.txt is "<seed> <comment>": a seed
// that once triggered a panic, hang or misclassification.  They must all
// stay inside the contract forever.
func TestReplayRegressions(t *testing.T) {
	f, err := os.Open("testdata/regressions.txt")
	if err != nil {
		t.Fatalf("open fixtures: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		seed, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			t.Fatalf("bad fixture line %q: %v", line, err)
		}
		spec := NewSpec(seed)
		t.Run(spec.Name(), func(t *testing.T) {
			rep := Run(spec)
			if !rep.Ok() {
				t.Fatalf("regression fixture failing again: %s", rep)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read fixtures: %v", err)
	}
}

// TestFaultCorruptInput arms the buffer-corruption faultpoint and demands
// the pipeline degrade to a typed rejection — a corrupted reconstruction
// must never survive to a wrong answer.
func TestFaultCorruptInput(t *testing.T) {
	faultpoint.Enable("lift.corrupt-input")
	defer faultpoint.Reset()
	for seed := uint64(1); seed <= 8; seed++ {
		spec := NewSpecShaped(seed*577, ShapePoint)
		rep := Run(spec)
		if rep.Outcome == OutcomeWrongAnswer || rep.Outcome == OutcomePanicked || rep.Outcome == OutcomeUntypedError {
			t.Fatalf("corrupted input broke the contract: %s", rep)
		}
		if rep.Outcome == OutcomeVerified {
			t.Fatalf("corrupted input verified cleanly (faultpoint not wired?): %s", rep)
		}
	}
}

// TestFaultTruncateTrace arms the truncated-trace faultpoint: a capture
// that dies mid-filter must come back as a typed rejection at the trace
// phase.
func TestFaultTruncateTrace(t *testing.T) {
	faultpoint.Enable("trace.truncate")
	defer faultpoint.Reset()
	spec := NewSpecShaped(42, ShapeStencil3)
	rep := Run(spec)
	if rep.Outcome != OutcomeRejected {
		t.Fatalf("want rejection, got %s", rep)
	}
	if rep.Phase != lift.PhaseTrace {
		t.Fatalf("want rejection at %s, got %s", lift.PhaseTrace, rep)
	}
}

// TestBudgetsBound checks the spec-derived programs stay tiny enough that
// the step budget means "hang", not "slow": the largest image at the
// deepest shape must finish far under budget.
func TestBudgetsBound(t *testing.T) {
	spec := NewSpecShaped(7, ShapeTwoStage)
	spec.Width, spec.Height = 21, 11
	inst, err := Build(spec)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := inst.RunVMBounded(maxSteps / 10); err != nil {
		t.Fatalf("worst-case program busts a tenth of the budget: %v", err)
	}
}
