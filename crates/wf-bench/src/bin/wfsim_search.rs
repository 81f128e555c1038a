//! `wfsim_search` — a small command-line similarity search tool.
//!
//! Usage:
//! ```text
//! wfsim_search <corpus.json | --demo> <query-workflow-id> [k] [algorithm]
//!              [--engine scan|indexed] [--threads N] [--demo-size N]
//! wfsim_search <corpus.json | --demo> --bench-json BENCH_retrieval.json
//!              [--quick] [--queries N] [algorithm]
//! ```
//!
//! * `corpus.json` — a JSON array of workflows (the format written by
//!   `wf_model::json::corpus_to_json`); pass `--demo` instead to search a
//!   freshly generated synthetic corpus (`--demo-size` workflows).
//! * `query-workflow-id` — the id of the query workflow inside the corpus.
//! * `k` — number of results (default 10).
//! * `algorithm` — one of `ms`, `ps`, `bw`, `bt`, `ensemble`
//!   (default `ensemble` = BW + MS_ip_te_pll for interactive search, `ms`
//!   for benchmark mode).
//! * `--engine` — `indexed` (default) profiles the corpus once and answers
//!   through the inverted-index engine with upper-bound pruning; `scan`
//!   exhaustively scores every workflow per query (the seed path).  Both
//!   return identical hit lists.
//! * `--bench-json PATH` — benchmark mode: time both engines over a query
//!   set and write a machine-readable report (used by CI to track the perf
//!   trajectory); `--quick` shrinks the corpus for smoke runs.

use std::process::ExitCode;
use std::time::Instant;

use wf_bench::table::TextTable;
use wf_model::{Workflow, WorkflowId};
use wf_repo::{Repository, SearchEngine, SearchStats};
use wf_sim::{Corpus, Ensemble, SimilarityConfig, WorkflowSimilarity};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Scan,
    Indexed,
}

struct Options {
    source: String,
    query: Option<String>,
    k: usize,
    algorithm: String,
    engine: Engine,
    threads: usize,
    demo_size: usize,
    bench_json: Option<String>,
    quick: bool,
    queries: usize,
}

const USAGE: &str =
    "usage: wfsim_search <corpus.json | --demo> <query-workflow-id> [k] [algorithm] \
                     [--engine scan|indexed] [--threads N] [--demo-size N] \
                     [--bench-json PATH [--quick] [--queries N]]";

fn flag_value(args: &[String], i: &mut usize, name: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{name} expects a value"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut positional: Vec<&str> = Vec::new();
    let mut engine = Engine::Indexed;
    let mut threads = 8usize;
    let mut demo_size = 0usize; // 0 = pick by mode
    let mut bench_json = None;
    let mut quick = false;
    let mut queries = None;
    let mut source = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--demo" => source = Some("--demo".to_string()),
            "--engine" => {
                engine = match flag_value(args, &mut i, "--engine")?.as_str() {
                    "scan" => Engine::Scan,
                    "indexed" => Engine::Indexed,
                    other => return Err(format!("unknown engine '{other}' (scan | indexed)")),
                }
            }
            "--threads" => {
                threads = flag_value(args, &mut i, "--threads")?
                    .parse()
                    .map_err(|_| "invalid --threads value".to_string())?
            }
            "--demo-size" => {
                demo_size = flag_value(args, &mut i, "--demo-size")?
                    .parse()
                    .map_err(|_| "invalid --demo-size value".to_string())?
            }
            "--bench-json" => bench_json = Some(flag_value(args, &mut i, "--bench-json")?),
            "--queries" => {
                queries = Some(
                    flag_value(args, &mut i, "--queries")?
                        .parse()
                        .map_err(|_| "invalid --queries value".to_string())?,
                )
            }
            "--quick" => quick = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}'\n{USAGE}"));
            }
            other => positional.push(other),
        }
        i += 1;
    }
    let mut positional = positional.into_iter();
    let source = match source {
        Some(s) => s,
        None => positional
            .next()
            .ok_or_else(|| USAGE.to_string())?
            .to_string(),
    };
    let benchmarking = bench_json.is_some();
    let query = positional.next().map(str::to_string);
    if query.is_none() && !benchmarking {
        return Err(USAGE.to_string());
    }
    let k = positional
        .next()
        .map(|v| v.parse().map_err(|_| format!("invalid k '{v}'")))
        .transpose()?
        .unwrap_or(10);
    let algorithm = positional
        .next()
        .map(str::to_string)
        .unwrap_or_else(|| if benchmarking { "ms" } else { "ensemble" }.to_string());
    if demo_size == 0 {
        demo_size = match (benchmarking, quick) {
            (true, true) => 60,
            (true, false) => 250,
            _ => 200,
        };
    }
    // An explicit --queries wins; --quick only shrinks the default.
    let queries = queries.unwrap_or(if quick { 3 } else { 8 });
    Ok(Options {
        source,
        query,
        k,
        algorithm,
        engine,
        threads: threads.max(1),
        demo_size,
        bench_json,
        quick,
        queries,
    })
}

type Scorer = Box<dyn Fn(&Workflow, &Workflow) -> f64 + Sync>;

/// The pipeline configuration behind an algorithm short-hand, when the
/// algorithm is a single profileable measure.
fn algorithm_config(algorithm: &str) -> Result<Option<SimilarityConfig>, String> {
    match algorithm {
        "ms" => Ok(Some(SimilarityConfig::best_module_sets())),
        "ps" => Ok(Some(SimilarityConfig::best_path_sets())),
        "bw" => Ok(Some(SimilarityConfig::bag_of_words())),
        "bt" => Ok(Some(SimilarityConfig::bag_of_tags())),
        "ensemble" => Ok(None),
        other => Err(format!(
            "unknown algorithm '{other}' (expected ms, ps, bw, bt or ensemble)"
        )),
    }
}

fn scorer(algorithm: &str) -> Result<Scorer, String> {
    match algorithm_config(algorithm)? {
        Some(config) => {
            let m = WorkflowSimilarity::new(config);
            Ok(Box::new(move |a, b| m.similarity(a, b)))
        }
        None => {
            let e = Ensemble::bw_plus_module_sets();
            Ok(Box::new(move |a, b| e.similarity(a, b)))
        }
    }
}

fn print_hits(repository: &Repository, query: &Workflow, hits: &[wf_repo::SearchHit], note: &str) {
    println!(
        "top-{} workflows similar to {} (\"{}\"){note}:",
        hits.len(),
        query.id,
        query.annotations.title.as_deref().unwrap_or("untitled")
    );
    let mut table = TextTable::new(vec!["rank", "id", "score", "title"]);
    for (rank, hit) in hits.iter().enumerate() {
        let title = repository
            .get(&hit.id)
            .and_then(|wf| wf.annotations.title.clone())
            .unwrap_or_default();
        table.row(vec![
            (rank + 1).to_string(),
            hit.id.as_str().to_string(),
            format!("{:.3}", hit.score),
            title,
        ]);
    }
    println!("{}", table.render());
}

fn run_search(options: &Options, repository: &Repository) -> Result<(), String> {
    let query_id = WorkflowId::new(options.query.clone().expect("search mode has a query"));
    let query = repository
        .get(&query_id)
        .ok_or_else(|| format!("query workflow '{query_id}' not found in the corpus"))?
        .clone();
    let config = algorithm_config(&options.algorithm)?;
    match (options.engine, config) {
        (Engine::Indexed, Some(config)) => {
            let corpus = Corpus::build(config, repository.workflows().to_vec());
            let query_index = corpus
                .index_of(&query_id)
                .expect("query id resolved against the same corpus");
            let (hits, stats) = corpus.top_k_with_stats(query_index, options.k);
            print_hits(
                repository,
                &query,
                &hits,
                &format!(" by {} [indexed]", options.algorithm),
            );
            println!(
                "engine: indexed — scored {} of {} candidates \
                 ({} pruned by bound, {} zero-bound, {} sharing label tokens)",
                stats.scored,
                stats.candidates,
                stats.pruned,
                stats.zero_bound,
                stats.shared_token_candidates
            );
        }
        (engine_kind, config) => {
            if engine_kind == Engine::Indexed && config.is_none() {
                println!(
                    "note: '{}' is not a single profileable measure; using the scan engine",
                    options.algorithm
                );
            }
            let score = scorer(&options.algorithm)?;
            let engine = SearchEngine::new(repository, score).with_threads(options.threads);
            let hits = engine.top_k_parallel(&query, options.k);
            print_hits(
                repository,
                &query,
                &hits,
                &format!(" by {} [scan]", options.algorithm),
            );
        }
    }
    Ok(())
}

fn run_benchmark(options: &Options, repository: &Repository) -> Result<(), String> {
    let path = options.bench_json.as_deref().expect("benchmark mode");
    let config = algorithm_config(&options.algorithm)?.ok_or_else(|| {
        "benchmark mode needs a profileable algorithm (ms, ps, bw, bt)".to_string()
    })?;
    let algorithm_name = config.name();
    let n = repository.len();
    let queries: Vec<usize> = (0..options.queries.min(n)).collect();
    if queries.is_empty() {
        return Err("benchmark needs a non-empty corpus".to_string());
    }

    // Seed scan path: re-derives everything per pair.
    let plain = WorkflowSimilarity::new(config.clone());
    let scan_engine = SearchEngine::new(repository, |a: &Workflow, b: &Workflow| {
        plain.similarity(a, b)
    });
    let scan_started = Instant::now();
    let scan_lists: Vec<_> = queries
        .iter()
        .map(|&q| scan_engine.top_k(&repository.workflows()[q], options.k))
        .collect();
    let scan_ms = scan_started.elapsed().as_secs_f64() * 1e3;
    let scan_comparisons = queries.len() * n.saturating_sub(1);

    // Corpus-resident path: one shared Corpus (profiles + index), prune per
    // query through an engine that borrows the corpus-resident index.
    let build_started = Instant::now();
    let corpus = Corpus::build(config, repository.workflows().to_vec());
    let build_ms = build_started.elapsed().as_secs_f64() * 1e3;
    let indexed_engine = corpus.search_engine();
    let indexed_started = Instant::now();
    let mut stats_total = SearchStats::default();
    let mut indexed_lists = Vec::new();
    for &q in &queries {
        let (hits, stats) = indexed_engine.top_k_with_stats(q, options.k);
        indexed_lists.push(hits);
        stats_total.candidates += stats.candidates;
        stats_total.scored += stats.scored;
        stats_total.pruned += stats.pruned;
        stats_total.zero_bound += stats.zero_bound;
        stats_total.shared_token_candidates += stats.shared_token_candidates;
    }
    let indexed_ms = indexed_started.elapsed().as_secs_f64() * 1e3;

    let identical = scan_lists == indexed_lists;
    // Keep the report valid JSON: a sub-resolution indexed run must not
    // format as the literal `inf`.
    let speedup = scan_ms / indexed_ms.max(1e-6);
    let report = format!(
        "{{\n  \"experiment\": \"retrieval_topk\",\n  \"corpus\": \"{}\",\n  \
         \"corpus_size\": {},\n  \"queries\": {},\n  \"k\": {},\n  \
         \"algorithm\": \"{}\",\n  \"quick\": {},\n  \"engines\": [\n    \
         {{\"engine\": \"scan\", \"wall_ms\": {:.3}, \"comparisons_scored\": {}, \
         \"comparisons_pruned\": 0}},\n    \
         {{\"engine\": \"indexed\", \"wall_ms\": {:.3}, \"build_ms\": {:.3}, \
         \"comparisons_scored\": {}, \"comparisons_pruned\": {}, \
         \"zero_bound_shortcuts\": {}, \"shared_token_candidates\": {}}}\n  ],\n  \
         \"identical_hits\": {},\n  \"speedup_scan_over_indexed\": {:.3}\n}}\n",
        wf_bench::json_escape(&options.source),
        n,
        queries.len(),
        options.k,
        algorithm_name,
        options.quick,
        scan_ms,
        scan_comparisons,
        indexed_ms,
        build_ms,
        stats_total.scored,
        stats_total.pruned + stats_total.zero_bound,
        stats_total.zero_bound,
        stats_total.shared_token_candidates,
        identical,
        speedup,
    );
    std::fs::write(path, &report).map_err(|e| format!("cannot write '{path}': {e}"))?;
    println!(
        "retrieval benchmark ({algorithm_name}, {} workflows, {} queries, top-{}):",
        n,
        queries.len(),
        options.k
    );
    println!("  scan    {scan_ms:>10.1} ms  ({scan_comparisons} comparisons)");
    println!(
        "  indexed {indexed_ms:>10.1} ms  (+{build_ms:.1} ms profile/index build, \
         {} scored / {} pruned)",
        stats_total.scored,
        stats_total.pruned + stats_total.zero_bound
    );
    println!("  speedup {speedup:>10.1} x  -> {path}");
    if !identical {
        return Err("indexed and scan hit lists diverged — this is a bug".to_string());
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_options(&args)?;
    let corpus = wf_bench::load_workflows(&options.source, options.demo_size)?;
    let repository = Repository::from_workflows(corpus);
    if options.bench_json.is_some() {
        run_benchmark(&options, &repository)
    } else {
        run_search(&options, &repository)
    }
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
