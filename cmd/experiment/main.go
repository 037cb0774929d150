// Command experiment regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index) from the synthetic world:
//
//	experiment -fig 1        # Figure 1: host workflow enactment summary
//	experiment -fig 6        # Figure 6: compiled + embedded workflow structure
//	experiment -fig 7        # Figure 7: GO-term significance ranking (default)
//	experiment -ablation qa  # A2: QA choice precision/recall
//	experiment -ablation threshold  # A3: filter-threshold sweep
//	experiment -dataplane    # serial vs sharded vs cached enactment
//	experiment -sparql       # metadata-plane query engine: clone vs snapshot
//	experiment -cube         # quality cube: rollup slices vs SPARQL scans
//	experiment -mqo          # view-fleet MQO: independent vs merged shared-prefix enactment
//	experiment -eventtime    # event-time streaming: equivalence, late data, drift alerting
//	experiment -all          # everything
//
// Flags -seed, -spots, -db resize the world and -sparql-runs the SPARQL
// experiment's provenance log; every other size is a constant of its
// experiment. Figure 7 and the five system experiments each write one
// experiment/v1 record, BENCH_<name>.json, into the -out directory
// (default ".", empty = no files): schema, experiment, the machine facts
// (go_version, gomaxprocs, nproc), params, metrics ({name, unit, value,
// samples}, per-row results named "<row>/<field>"), named checks ({name,
// pass, detail}: every tripwire) and registry (the process metrics
// snapshot). Every metric and check is printed, and the command exits 1
// if any check failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"qurator/internal/ispider"
	"qurator/internal/telemetry"
)

// repeats is the number of timed repeats per configuration in the
// data-plane, SPARQL, cube and MQO experiments.
const repeats = 3

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (1, 6 or 7)")
	ablation := flag.String("ablation", "", "ablation to run: qa | threshold")
	all := flag.Bool("all", false, "run every experiment")
	seed := flag.Int64("seed", 2006, "world seed")
	spots := flag.Int("spots", 10, "number of protein spots")
	dbSize := flag.Int("db", 120, "reference database size")
	dataplaneRun := flag.Bool("dataplane", false,
		"run the data-plane experiment: serial vs sharded vs cached enactment of the quality view")
	sparqlRun := flag.Bool("sparql", false,
		"run the metadata-plane query experiment: clone-per-query vs snapshot + streaming evaluation")
	sparqlRuns := flag.Int("sparql-runs", 20000, "provenance runs in the SPARQL experiment's log")
	cubeRun := flag.Bool("cube", false,
		"run the quality-cube experiment: pre-aggregated rollup slices vs SPARQL scans over raw daQ observations")
	mqoRun := flag.Bool("mqo", false,
		"run the multi-query-optimization experiment: independent view-fleet enactment vs one merged shared-prefix plan")
	etRun := flag.Bool("eventtime", false,
		"run the event-time streaming experiment: count/event-time equivalence, late-data supersession, drift-alert latency")
	out := flag.String("out", ".", "directory for the BENCH_<name>.json records; empty = no files")
	flag.Parse()

	params := ispider.DefaultWorldParams()
	params.Seed = *seed
	params.SpotCount = *spots
	params.DBSize = *dbSize
	world, err := ispider.BuildWorld(params)
	if err != nil {
		fatal(err)
	}

	table := func(f func()) experiment {
		return func() (*record, error) { f(); return nil, nil }
	}
	fig1 := table(func() { runFigure1(world) })
	fig6 := table(func() { runFigure6(world) })
	fig7 := func() (*record, error) { return runFigure7(world) }
	dataplane := func() (*record, error) { return measureDataPlane(world, repeats) }
	sparql := func() (*record, error) { return measureSPARQL(*sparqlRuns, repeats) }
	cube := func() (*record, error) { return measureCube(cubeObs, repeats) }
	mqo := func() (*record, error) {
		return measureMQO(mqoViews, mqoFamilies, mqoItems, mqoLatency, repeats)
	}
	eventtime := func() (*record, error) { return measureEventTime(etItems, etWindow, etSpacing) }
	qaAblation := table(func() { runQAAblation(world) })
	thresholdAblation := table(func() { runThresholdAblation(world) })
	learnedAblation := table(func() { runLearnedAblation(world) })
	contaminationAblation := table(func() { runContaminationAblation(params) })

	var exps []experiment
	switch {
	case *all:
		exps = []experiment{fig1, fig6, fig7, dataplane, sparql, cube, mqo, eventtime,
			qaAblation, thresholdAblation, learnedAblation, contaminationAblation}
	case *dataplaneRun:
		exps = []experiment{dataplane}
	case *sparqlRun:
		exps = []experiment{sparql}
	case *cubeRun:
		exps = []experiment{cube}
	case *mqoRun:
		exps = []experiment{mqo}
	case *etRun:
		exps = []experiment{eventtime}
	case *fig == 1:
		exps = []experiment{fig1}
	case *fig == 6:
		exps = []experiment{fig6}
	case *fig == 7 || (*fig == 0 && *ablation == ""):
		exps = []experiment{fig7}
	case *ablation == "qa":
		exps = []experiment{qaAblation}
	case *ablation == "threshold":
		exps = []experiment{thresholdAblation}
	case *ablation == "learned":
		exps = []experiment{learnedAblation}
	case *ablation == "contamination":
		exps = []experiment{contaminationAblation}
	default:
		fmt.Fprintln(os.Stderr, "experiment: unknown selection")
		flag.Usage()
		os.Exit(2)
	}
	if err := runExperiments(os.Stdout, *out, exps); err != nil {
		fatal(err)
	}
}

func runFigure1(world *ispider.World) {
	out, err := ispider.RunBaseline(world)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Figure 1 — ISPIDER analysis workflow (no quality processing)")
	fmt.Printf("spots analysed:        %d\n", world.Params.SpotCount)
	fmt.Printf("reference DB size:     %d proteins\n", world.Params.DBSize)
	fmt.Printf("identifications:       %d ranked protein IDs\n", len(out.Entries))
	totalTerms := 0
	for _, n := range out.TermCounts {
		totalTerms += n
	}
	fmt.Printf("GO-term occurrences:   %d over %d distinct terms\n", totalTerms, len(out.TermCounts))
	fmt.Println("\ntop GO terms by raw frequency (the pareto view):")
	ranking := ispider.TermRanking(out.TermCounts)
	for i, term := range ranking {
		if i >= 10 {
			break
		}
		fmt.Printf("  %2d. %-14s %4d occurrences\n", i+1, term, out.TermCounts[term])
	}
	fmt.Println()
}

func runFigure6(world *ispider.World) {
	p, err := ispider.BuildPipeline(world, "")
	if err != nil {
		fatal(err)
	}
	fmt.Println("Figure 6 — compiled quality workflow, embedded in the host")
	fmt.Print(p.Compiled.Describe())
	fmt.Println("\nhost workflow after embedding:")
	fmt.Printf("  processors: %v\n", p.Host.Processors())
	for _, l := range p.Host.DataLinks() {
		fmt.Printf("  link: %s\n", l)
	}
	// Prove the embedding runs, using the distribution-relative condition
	// (the §5.1 default's absolute HR_MC > 20 threshold is calibrated to
	// the authors' lab, not this synthetic world).
	if err := p.Compiled.SetFilterCondition("filter top k score", "ScoreClass in q:high"); err != nil {
		fatal(err)
	}
	out, err := p.Run(context.Background())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nenactment (condition: ScoreClass in q:high): %d identifications in, %d accepted\n\n",
		len(out.Entries), out.Accepted.Len())
}

func runFigure7(world *ispider.World) (*record, error) {
	res, timings, err := ispider.RunFigure7Timed(world)
	if err != nil {
		return nil, err
	}
	fmt.Print(res.Format())
	fmt.Println()
	return figure7Record(world, res, timings), nil
}

// figure7Record records the Figure-7 run: world parameters, per-phase
// wall-clock, the headline result numbers, and the process metrics
// (processor durations, service counters) the run accumulated.
func figure7Record(world *ispider.World, res *ispider.Figure7Result, t *ispider.Figure7Timings) *record {
	rec := newRecord("fig7", map[string]any{"world": world.Params})
	rec.metric("baseline/wall_ms", "ms", float64(t.Baseline.Microseconds())/1000, 1)
	rec.metric("quality_enactment/wall_ms", "ms", float64(t.QualityEnactment.Microseconds())/1000, 1)
	rec.metric("ranking/wall_ms", "ms", float64(t.Ranking.Microseconds())/1000, 1)
	rec.metric("identifications/original", "count", float64(res.IdentificationsOriginal), 1)
	rec.metric("identifications/kept", "count", float64(res.IdentificationsKept), 1)
	rec.metric("term_occurrences/original", "count", float64(res.TotalOriginal), 1)
	rec.metric("term_occurrences/filtered", "count", float64(res.TotalFiltered), 1)
	rec.metric("rank_displacement", "ranks", res.RankDisplacement, 1)
	rec.Registry = telemetry.Default.Snapshot()
	return rec
}

func runQAAblation(world *ispider.World) {
	rows, err := ispider.RunQAComparison(world)
	if err != nil {
		fatal(err)
	}
	fmt.Print(ispider.FormatPRTable(
		"Ablation A2 — alternative quality assertions over the same evidence", rows))
	fmt.Println()
}

func runThresholdAblation(world *ispider.World) {
	points, err := ispider.RunThresholdSweep(world, []int{1, 2, 3, 5, 8, 10})
	if err != nil {
		fatal(err)
	}
	stats := make([]ispider.PRStats, len(points))
	for i, p := range points {
		stats[i] = p.PRStats
	}
	fmt.Print(ispider.FormatPRTable(
		"Ablation A3 — filter-threshold sweep (score cuts and top-k per spot)", stats))
	fmt.Println()
}

func runLearnedAblation(world *ispider.World) {
	res, err := ispider.RunLearnedQA(world)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Format())
	fmt.Println()
}

func runContaminationAblation(params ispider.WorldParams) {
	points, err := ispider.RunContaminationSweep(params, []int{0, 1, 2, 4, 6})
	if err != nil {
		fatal(err)
	}
	fmt.Print(ispider.FormatContamination(points))
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiment:", err)
	os.Exit(1)
}
