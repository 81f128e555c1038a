//! `wfsim_serve` — the shard-count benchmark: scatter-gather batch-query
//! throughput vs shard count.  Serving under churn and over the network is
//! measured by the `wfsim-bench` loopback benchmark (its `churn` workload)
//! and tested by the `wf-serve` integration suite.
//!
//! Usage:
//! ```text
//! wfsim_serve [corpus.json | --demo] [--bench-json BENCH_serving.json]
//!             [--smoke | --quick] [--demo-size N] [--queries N] [--k N]
//!             [--threads N] [--shards a,b,c] [--corpus-size 250,2k,10k]
//!             [--reps N] [--assert-scaling]
//! ```
//!
//! * Builds the demo corpus (250 workflows by default, 60 with
//!   `--smoke`/`--quick`) once, answers a query batch through the
//!   single-corpus served path (`Corpus::top_k_index`) as the timed
//!   baseline, then through `ShardedCorpus::search_batch` for each shard
//!   count, verifying every hit list, the baseline's included, is
//!   bit-identical to the brute-force `scan_top_k` oracle.
//!   `--corpus-size` repeats the whole q/s × shard-count sweep for each
//!   listed demo-corpus size (`2k` = 2000), each timed as the median of
//!   `--reps` batches (default 3), producing one scaling curve per size in
//!   the JSON report.
//!   `--assert-scaling` then fails the run if, on the largest corpus,
//!   batch q/s at the highest shard count falls more than 15% below the
//!   lowest — a regression guard pinning down the global-frontier
//!   scheduling guarantee (the old per-shard-heap design lost >4× here;
//!   the allowance absorbs scheduler/allocator noise on one-core runners).
//! * `--bench-json PATH` writes the machine-readable report CI uploads
//!   next to the retrieval and clustering benches.

use std::process::ExitCode;
use std::time::Instant;

use wf_bench::table::TextTable;
use wf_model::{Workflow, WorkflowId};
use wf_sim::{Corpus, ShardedCorpus, SimilarityConfig};

struct Options {
    source: String,
    demo_size: usize,
    queries: usize,
    k: usize,
    threads: usize,
    shard_counts: Vec<usize>,
    bench_json: Option<String>,
    smoke: bool,
    corpus_sizes: Vec<usize>,
    reps: usize,
    assert_scaling: bool,
}

const USAGE: &str = "usage: wfsim_serve [corpus.json | --demo] [--bench-json PATH] \
                     [--smoke | --quick] [--demo-size N] [--queries N] [--k N] \
                     [--threads N] [--shards a,b,c] [--corpus-size 250,2k,10k] \
                     [--reps N] [--assert-scaling]";

/// Parses a corpus size that may carry a `k`/`K` thousands suffix.
fn parse_size(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    let (digits, scale) = match trimmed.strip_suffix(['k', 'K']) {
        Some(head) => (head, 1000usize),
        None => (trimmed, 1),
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(scale))
        .filter(|&n| n >= 2)
        .ok_or_else(|| format!("invalid corpus size '{raw}'"))
}

fn flag_value(args: &[String], i: &mut usize, name: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{name} expects a value"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut source = "--demo".to_string();
    let mut demo_size = 0usize;
    let mut queries = 0usize;
    let mut k = 10usize;
    let mut threads = 8usize;
    let mut shard_counts = vec![1, 2, 4, 8];
    let mut bench_json = None;
    let mut smoke = false;
    let mut corpus_sizes = Vec::new();
    let mut reps = 3usize;
    let mut assert_scaling = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--demo" => source = "--demo".to_string(),
            "--smoke" | "--quick" => smoke = true,
            "--bench-json" => bench_json = Some(flag_value(args, &mut i, "--bench-json")?),
            "--demo-size" => {
                demo_size = flag_value(args, &mut i, "--demo-size")?
                    .parse()
                    .map_err(|_| "invalid --demo-size value".to_string())?
            }
            "--queries" => {
                queries = flag_value(args, &mut i, "--queries")?
                    .parse()
                    .map_err(|_| "invalid --queries value".to_string())?
            }
            "--k" => {
                k = flag_value(args, &mut i, "--k")?
                    .parse()
                    .map_err(|_| "invalid --k value".to_string())?
            }
            "--threads" => {
                threads = flag_value(args, &mut i, "--threads")?
                    .parse()
                    .map_err(|_| "invalid --threads value".to_string())?
            }
            "--corpus-size" | "--corpus-sizes" => {
                corpus_sizes = flag_value(args, &mut i, "--corpus-size")?
                    .split(',')
                    .map(parse_size)
                    .collect::<Result<Vec<_>, _>>()?;
                if corpus_sizes.is_empty() {
                    return Err("--corpus-size needs at least one size".to_string());
                }
            }
            "--reps" => {
                reps = flag_value(args, &mut i, "--reps")?
                    .parse()
                    .map_err(|_| "invalid --reps value".to_string())?
            }
            "--assert-scaling" => assert_scaling = true,
            "--shards" => {
                shard_counts = flag_value(args, &mut i, "--shards")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("invalid shard count '{s}'"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if shard_counts.is_empty() {
                    return Err("--shards needs at least one count".to_string());
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}'\n{USAGE}"));
            }
            other => source = other.to_string(),
        }
        i += 1;
    }
    if demo_size == 0 {
        demo_size = if smoke { 60 } else { 250 };
    }
    if queries == 0 {
        queries = if smoke { 12 } else { 48 };
    }
    if !corpus_sizes.is_empty() && source != "--demo" {
        return Err("--corpus-size sweeps the seeded demo corpus; it cannot resize a file".into());
    }
    Ok(Options {
        source,
        demo_size,
        queries,
        k,
        threads: threads.max(1),
        shard_counts,
        bench_json,
        smoke,
        corpus_sizes,
        reps: reps.max(1),
        assert_scaling,
    })
}

struct ShardRun {
    shards: usize,
    batch_ms: f64,
    queries_per_s: f64,
    identical: bool,
    scored: usize,
    pruned: usize,
}

/// One corpus size's q/s × shard-count scaling curve.
struct SizeCurve {
    corpus_size: usize,
    queries: usize,
    algorithm: String,
    baseline_ms: f64,
    runs: Vec<ShardRun>,
}

/// Runs the shard-count sweep for one workflow set: a timed single-corpus
/// baseline on the served path, then
/// `ShardedCorpus::search_batch_with_stats` per shard count — batch wall
/// time the median of `reps`, pruning stats from the first rep, and every
/// hit list checked bit-identical against the (untimed) exhaustive
/// `scan_top_k` oracle.
fn sweep_shard_counts(workflows: &[Workflow], options: &Options) -> SizeCurve {
    let config = SimilarityConfig::best_module_sets();
    let n = workflows.len();
    let single = Corpus::build(config.clone(), workflows.to_vec());
    let query_ids: Vec<WorkflowId> = single
        .ids()
        .iter()
        .step_by((n / options.queries.min(n)).max(1))
        .take(options.queries)
        .cloned()
        .collect();
    let query_indices: Vec<usize> = query_ids
        .iter()
        .map(|id| single.index_of(id).expect("query resident"))
        .collect();
    let oracle: Vec<Vec<wf_repo::SearchHit>> = query_indices
        .iter()
        .map(|&qi| wf_repo::scan_top_k(single.measure(), qi, options.k))
        .collect();
    let baseline_started = Instant::now();
    let baseline: Vec<Vec<wf_repo::SearchHit>> = query_indices
        .iter()
        .map(|&qi| single.top_k_index(qi, options.k))
        .collect();
    let baseline_ms = baseline_started.elapsed().as_secs_f64() * 1e3;
    let baseline_identical = baseline == oracle;

    // Build every shard count up front, then time them in interleaved
    // rounds (one rep of each count per round) and take the per-count
    // median.  Timing each count's reps back-to-back instead would bias
    // the comparison: allocator and page-cache state drift over the
    // process lifetime, so whichever count runs first measures fastest —
    // an ordering artifact the round-robin spreads evenly.  The median
    // (not best-of) keeps one lucky scheduler slice from minting a ~5%
    // outlier on a curve whose truth is flat.
    let built: Vec<(usize, ShardedCorpus)> = options
        .shard_counts
        .iter()
        .map(|&shards| {
            (
                shards,
                ShardedCorpus::build(config.clone(), shards, workflows.to_vec()),
            )
        })
        .collect();
    let mut rep_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(options.reps); built.len()];
    let mut outcomes = Vec::new();
    for rep in 0..options.reps {
        for (slot, (_, sharded)) in built.iter().enumerate() {
            let batch_started = Instant::now();
            let (batch, stats) =
                sharded.search_batch_with_stats(&query_ids, options.k, options.threads);
            rep_ms[slot].push(batch_started.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                outcomes.push((batch, stats));
            }
        }
    }
    let mut runs: Vec<ShardRun> = Vec::new();
    for (slot, (shards, _)) in built.iter().enumerate() {
        let times = &mut rep_ms[slot];
        times.sort_by(|a, b| a.partial_cmp(b).expect("batch timings are finite"));
        let median_ms = times[times.len() / 2];
        let (batch, stats) = &outcomes[slot];
        let identical = baseline_identical
            && batch
                .iter()
                .zip(&oracle)
                .all(|(got, expected)| got.as_deref() == Some(expected.as_slice()));
        runs.push(ShardRun {
            shards: *shards,
            batch_ms: median_ms,
            queries_per_s: query_ids.len() as f64 / (median_ms / 1e3).max(1e-9),
            identical,
            scored: stats.scored,
            pruned: stats.pruned + stats.zero_bound,
        });
    }
    SizeCurve {
        corpus_size: n,
        queries: query_ids.len(),
        algorithm: single.measure_name(),
        baseline_ms,
        runs,
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_options(&args)?;
    let workflows = wf_bench::load_workflows(&options.source, options.demo_size)?;
    let n = workflows.len();
    if n < 2 {
        return Err("serving benchmark needs at least two workflows".to_string());
    }

    // Scaling curves: the loaded corpus alone, or one seeded demo corpus
    // per `--corpus-size` entry, each swept across every shard count.
    let mut curves: Vec<SizeCurve> = Vec::new();
    if options.corpus_sizes.is_empty() {
        curves.push(sweep_shard_counts(&workflows, &options));
    } else {
        for &size in &options.corpus_sizes {
            let sized = if size == n {
                workflows.clone()
            } else {
                wf_bench::demo_workflows(size, wf_bench::corpus::DEMO_SEED)
            };
            curves.push(sweep_shard_counts(&sized, &options));
        }
    }
    // The largest corpus carries the headline scaling claim.
    let headline = curves
        .iter()
        .max_by_key(|c| c.corpus_size)
        .expect("at least one curve");

    // Human-readable summary.
    println!(
        "serving benchmark ({}, top-{}, {} threads, median of {} reps):",
        headline.algorithm, options.k, options.threads, options.reps
    );
    let mut table = TextTable::new(vec![
        "corpus",
        "shards",
        "batch ms",
        "queries/s",
        "identical",
        "scored",
        "pruned",
    ]);
    for curve in &curves {
        println!(
            "  corpus {}: {} queries, single-corpus baseline {:>8.1} ms",
            curve.corpus_size, curve.queries, curve.baseline_ms
        );
        for run in &curve.runs {
            table.row(vec![
                curve.corpus_size.to_string(),
                run.shards.to_string(),
                format!("{:.1}", run.batch_ms),
                format!("{:.0}", run.queries_per_s),
                run.identical.to_string(),
                run.scored.to_string(),
                run.pruned.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    if let Some(path) = &options.bench_json {
        let shard_reports = |runs: &[ShardRun], indent: &str| -> String {
            runs.iter()
                .map(|run| {
                    format!(
                        "{indent}{{\"shards\": {}, \"batch_wall_ms\": {:.3}, \
                         \"queries_per_s\": {:.1}, \"identical_hits\": {}, \
                         \"comparisons_scored\": {}, \"comparisons_pruned\": {}}}",
                        run.shards,
                        run.batch_ms,
                        run.queries_per_s,
                        run.identical,
                        run.scored,
                        run.pruned,
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let scale_curves: Vec<String> = curves
            .iter()
            .map(|curve| {
                format!(
                    "    {{\"corpus_size\": {}, \"queries\": {}, \
                     \"single_engine_wall_ms\": {:.3}, \"shard_counts\": [\n{}\n    ]}}",
                    curve.corpus_size,
                    curve.queries,
                    curve.baseline_ms,
                    shard_reports(&curve.runs, "      "),
                )
            })
            .collect();
        let report = format!(
            "{{\n  \"experiment\": \"serving_scatter_gather\",\n  \"corpus\": \"{}\",\n  \
             \"corpus_size\": {},\n  \"queries\": {},\n  \"k\": {},\n  \
             \"algorithm\": \"{}\",\n  \"threads\": {},\n  \"smoke\": {},\n  \
             \"reps\": {},\n  \
             \"single_engine_wall_ms\": {:.3},\n  \"shard_counts\": [\n{}\n  ],\n  \
             \"scale_curves\": [\n{}\n  ]\n}}\n",
            wf_bench::json_escape(&options.source),
            headline.corpus_size,
            headline.queries,
            options.k,
            headline.algorithm,
            options.threads,
            options.smoke,
            options.reps,
            headline.baseline_ms,
            shard_reports(&headline.runs, "    "),
            scale_curves.join(",\n"),
        );
        std::fs::write(path, &report).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("  report -> {path}");
    }

    for curve in &curves {
        if let Some(diverged) = curve.runs.iter().find(|run| !run.identical) {
            return Err(format!(
                "single-corpus or sharded batch hits diverged from the brute-force scan \
                 at {} shards (corpus {}) — this is a bug",
                diverged.shards, curve.corpus_size
            ));
        }
    }
    if options.assert_scaling {
        let (first, last) = (
            headline.runs.first().expect("non-empty shard list"),
            headline.runs.last().expect("non-empty shard list"),
        );
        // Regression guard, not a speed-up claim: with the global frontier
        // the per-query scan work is identical at every shard count, so the
        // truthful batch-throughput curve is flat.  The guard fails only on
        // a real degradation (the old per-shard-heap design lost >4× here),
        // with a 15% allowance for scheduler/allocator noise — on a
        // one-core runner the multi-shard walk pays a few percent of
        // memory-locality tax that parallel hardware hides, and run-to-run
        // jitter on shared runners spans ±10% on its own.
        if last.queries_per_s < first.queries_per_s * 0.85 {
            return Err(format!(
                "scaling regression on the {}-workflow corpus: {} shards answered \
                 {:.0} queries/s but {} shards only {:.0} — the global frontier must \
                 keep batch throughput from degrading as shards grow",
                headline.corpus_size,
                first.shards,
                first.queries_per_s,
                last.shards,
                last.queries_per_s
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
