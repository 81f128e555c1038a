//! wfsim-bench — the end-to-end and per-layer benchmark of the wfsim
//! serving stack.  See README.md in this directory for the workloads, the
//! metrics and the metric → layer → workload map.
//!
//! ```text
//! wfsim-bench --workload <lookup|search|churn> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off;
//! `--trace 1` prints the per-layer metrics.  The last stdout line is the
//! JSON result; the exit code is non-zero when any request failed or any
//! reply was wrong.

#![deny(unsafe_code)]

mod calib;
mod layers;
mod load;
mod report;
mod rng;
mod trace;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wf_model::{Workflow, WorkflowId};
use wf_repo::SearchStats;
use wf_serve::{Client, Hit, Server, ServerConfig, ServerHandle, StatsSnapshot};
use wf_sim::{Corpus, CorpusService, SearchParallelism, ShardedCorpus, SimilarityConfig};

use calib::Calibration;
use load::{run_phase, LoadContext, PhaseResult, K};
use report::{block_rate, mean, median, quantile, Metrics};
use rng::{Rng, Zipf};
use trace::Tracer;

const SHARDS: usize = 8;
const SERVER_WORKERS: usize = 2;
/// Precomputed query-stream length; readers wrap around past its end.
const STREAM_LEN: usize = 100_000;
/// Resident workflows the writer cycles through.
const WRITE_POOL: usize = 256;
/// Length of the write tail that read-only workloads run after their
/// read window, with no reader beside it.
const WRITE_TAIL: Duration = Duration::from_secs(6);
/// Blocks of the read window whose median throughput is `search_qps`.
const QPS_BLOCKS: usize = 15;
/// Calibration kernel runs at each boundary between load phases, and
/// after each set-up, snapshot save and snapshot load.
const CAL_SAMPLES: usize = 10;
const STEP_SAMPLES: usize = 2;
/// Workflows the traced run removes and re-adds in process.
const PROBE_WRITES: usize = 32;
/// Workflows removed from each shard's rebuilt profiles and index.
const PROBE_REMOVALS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Lookup,
    Search,
    Churn,
}

/// How readers pick query ids.
enum Mix {
    /// Uniform: shuffled passes with each id once per pass, over the whole
    /// corpus or a seeded subset of it.
    Uniform { subset: Option<usize> },
    /// Zipf(s) popularity over a seeded subset, in a seeded rank order.
    Zipf { subset: usize, s: f64 },
}

struct Spec {
    corpus: usize,
    /// Builds timed per run; `setup_s` is their median.
    setup_reps: usize,
    readers: usize,
    mix: Mix,
    /// Writes run beside the reads (otherwise after them).
    concurrent_writes: bool,
    /// Save/load round trips per run; `save_s`/`load_s` are medians.
    snapshot_reps: usize,
    oracle_queries: usize,
    probe_queries: usize,
    check_queries: usize,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "search" => Some(Workload::Search),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Search => "search",
            Workload::Churn => "churn",
        }
    }

    fn spec(self) -> Spec {
        match self {
            Workload::Lookup => Spec {
                corpus: 1483,
                setup_reps: 15,
                readers: 2,
                mix: Mix::Uniform { subset: None },
                concurrent_writes: false,
                snapshot_reps: 11,
                oracle_queries: 8,
                probe_queries: 256,
                check_queries: 256,
            },
            Workload::Search => Spec {
                corpus: 10_000,
                setup_reps: 5,
                readers: 2,
                mix: Mix::Zipf {
                    subset: 512,
                    s: 1.1,
                },
                concurrent_writes: false,
                snapshot_reps: 2,
                oracle_queries: 3,
                probe_queries: 64,
                check_queries: 128,
            },
            Workload::Churn => Spec {
                corpus: 10_000,
                setup_reps: 5,
                readers: 1,
                mix: Mix::Uniform { subset: Some(256) },
                concurrent_writes: true,
                snapshot_reps: 2,
                oracle_queries: 3,
                probe_queries: 64,
                check_queries: 128,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(15).max(2),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Everything the run draws from `--seed`.
struct Inputs {
    query_ids: Vec<String>,
    /// Query indices in the order readers take them.
    stream: Vec<u32>,
    /// Workflows the writer removes and re-adds.
    pool: Vec<Workflow>,
    /// The pool's ids: replies under writes may lack exactly these.
    churned: BTreeSet<String>,
    /// Queries re-checked after the writes and after the snapshot load.
    check: Vec<u32>,
    /// Queries checked against the brute-force oracle.
    oracle: Vec<u32>,
    /// Queries the traced run probes layer by layer.
    probe: Vec<u32>,
}

impl Inputs {
    fn draw(spec: &Spec, workflows: &[Workflow], seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let mut order: Vec<usize> = (0..workflows.len()).collect();
        rng.shuffle(&mut order);
        let id = |i: usize| workflows[i].id.0.clone();
        let (query_ids, stream, rest): (Vec<String>, Vec<u32>, &[usize]) = match spec.mix {
            Mix::Uniform { subset } => {
                let take = subset.unwrap_or(order.len()).min(order.len());
                let query_ids: Vec<String> = order[..take].iter().map(|&i| id(i)).collect();
                let stream = uniform_passes(&mut rng, (0..take as u32).collect());
                // The whole corpus is queried: the writer may reuse any id.
                let rest = if subset.is_some() {
                    &order[take..]
                } else {
                    &order[..]
                };
                (query_ids, stream, rest)
            }
            Mix::Zipf { subset, s } => {
                // `order` is a seeded shuffle, so rank r is the subset's
                // r-th id.
                let take = subset.min(order.len());
                let query_ids: Vec<String> = order[..take].iter().map(|&i| id(i)).collect();
                let zipf = Zipf::new(take, s);
                let stream = (0..STREAM_LEN)
                    .map(|_| zipf.sample(&mut rng) as u32)
                    .collect();
                (query_ids, stream, &order[take..])
            }
        };
        let pool: Vec<Workflow> = rest
            .iter()
            .take(WRITE_POOL)
            .map(|&i| workflows[i].clone())
            .collect();
        let churned: BTreeSet<String> = pool.iter().map(|wf| wf.id.0.clone()).collect();
        let probe = stream[..spec.probe_queries.min(stream.len())].to_vec();
        Inputs {
            check: distinct_prefix(&stream, spec.check_queries),
            oracle: distinct_prefix(&stream, spec.oracle_queries),
            query_ids,
            stream,
            pool,
            churned,
            probe,
        }
    }

    fn id(&self, qi: u32) -> WorkflowId {
        WorkflowId::new(self.query_ids[qi as usize].clone())
    }
}

/// At least `STREAM_LEN` query indices: shuffled passes over `queries`,
/// each once per pass.
fn uniform_passes(rng: &mut Rng, mut queries: Vec<u32>) -> Vec<u32> {
    let mut stream = Vec::with_capacity(STREAM_LEN + queries.len());
    while stream.len() < STREAM_LEN && !queries.is_empty() {
        rng.shuffle(&mut queries);
        stream.extend_from_slice(&queries);
    }
    stream
}

/// The first `n` distinct entries of `stream`, in stream order.
fn distinct_prefix(stream: &[u32], n: usize) -> Vec<u32> {
    let mut seen = BTreeSet::new();
    stream
        .iter()
        .copied()
        .filter(|&q| seen.insert(q))
        .take(n)
        .collect()
}

#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
}

impl Outcome {
    fn count(&mut self, phase: &PhaseResult) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.wrong.extend(phase.wrong.iter().cloned());
    }

    /// Compares in-process hits for the check queries with the expected
    /// ones.
    fn check_hits(
        &mut self,
        what: &str,
        inputs: &Inputs,
        got: Vec<Option<Vec<wf_repo::SearchHit>>>,
        expected: &[Vec<Hit>],
    ) {
        for (&qi, hits) in inputs.check.iter().zip(got) {
            let verdict = match hits {
                Some(hits) => load::same_hits(&layers::hits_of(hits), &expected[qi as usize]),
                None => Err("query not resident".to_string()),
            };
            self.verdict(what, &inputs.id(qi), verdict);
        }
    }

    /// Compares the expected hits of the oracle sample with a brute-force
    /// scan of one unsharded corpus.
    fn check_oracle(&mut self, workflows: &[Workflow], inputs: &Inputs, expected: &[Vec<Hit>]) {
        let oracle = Corpus::build(config(), workflows.iter().cloned());
        for &qi in &inputs.oracle {
            let id = inputs.id(qi);
            let verdict = match oracle.index_of(&id) {
                Some(index) => load::same_hits(
                    &layers::hits_of(wf_repo::scan_top_k(oracle.measure(), index, K)),
                    &expected[qi as usize],
                ),
                None => Err("not resident".to_string()),
            };
            self.verdict("oracle", &id, verdict);
        }
    }

    fn verdict(&mut self, what: &str, id: &WorkflowId, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.wrong.push(format!("{what} {id}: {why}"));
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            eprintln!(
                "usage: wfsim-bench --workload <lookup|search|churn> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("error: {why}");
            std::process::exit(1);
        }
    };
    let correct = outcome.wrong.is_empty() && outcome.failed == 0 && outcome.metrics.all_finite();
    println!(
        "workload {} seed {} trace {}: attempted {} failed {} correct {correct}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
    );
    outcome.metrics.print_table();
    for why in outcome.wrong.iter().take(20) {
        eprintln!("wrong: {why}");
    }
    println!(
        "{}",
        outcome
            .metrics
            .to_json(correct, outcome.attempted.max(1), outcome.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}

fn config() -> SimilarityConfig {
    SimilarityConfig::best_module_sets()
}

/// Where the run writes its trace files and snapshots.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = args.workload.spec();
    let workflows = wf_bench::demo_workflows(spec.corpus, args.seed);
    let inputs = Inputs::draw(&spec, &workflows, args.seed);
    let tracer = Tracer::new();
    let mut out = Outcome::default();
    let mut cal = Calibration::new();
    eprintln!(
        "wfsim-bench: {} — {} workflows, {} queries, seed {}",
        args.workload.name(),
        workflows.len(),
        inputs.query_ids.len(),
        args.seed
    );

    let reps = if args.trace { 1 } else { spec.setup_reps };
    let serving = setup(&workflows, reps, &inputs.query_ids, &mut cal)?;
    let expected = &serving.expected;
    let load = drive(args, &spec, &inputs, &serving, &tracer, &mut cal)?;
    for phase in load.phases() {
        out.count(phase);
    }
    if load.stats.bad_frames > 0 {
        out.failed += load.stats.bad_frames;
        out.wrong.push(format!(
            "the server saw {} bad frames",
            load.stats.bad_frames
        ));
    }
    serving.server.shutdown();
    let service = sole_owner(serving.service)?;

    let probe: Vec<(WorkflowId, &[Hit])> = inputs
        .probe
        .iter()
        .map(|&qi| (inputs.id(qi), expected[qi as usize].as_slice()))
        .collect();
    let probe_writes = &inputs.pool[..PROBE_WRITES.min(inputs.pool.len())];
    let mut rec = tracer.recorder(true);
    let server_path = if args.trace {
        layers::writes(&service, probe_writes, &mut rec, &mut out.wrong);
        layers::server_path(&service, &probe, &mut rec, &mut out.wrong)
    } else {
        Vec::new()
    };

    // Every removed id is back: the live corpus answers as before the writes.
    let check_ids: Vec<WorkflowId> = inputs.check.iter().map(|&qi| inputs.id(qi)).collect();
    let after_writes = service.search_batch(&check_ids, K);
    out.check_hits("after writes", &inputs, after_writes, expected);
    let sharded = service.into_sharded();

    let snap_dir = out_dir().join(format!("snapshot-{}", std::process::id()));
    let probes = if args.trace {
        let frontier = layers::frontier_path(&sharded, &probe, &mut rec, &mut out.wrong);
        let visited: Vec<usize> = frontier
            .iter()
            .map(|(_, s)| s.scored + s.zero_bound)
            .collect();
        let stage = layers::stages(&sharded, &probe, &visited, &mut rec);
        let (reply_bytes, add_bytes) =
            layers::codec(&probe, SHARDS, probe_writes, &mut rec, &mut out.wrong);
        layers::model_decode(probe_writes, &mut rec, &mut out.wrong);
        layers::builds(&sharded, PROBE_REMOVALS, &mut rec);
        let snapshot_bytes =
            layers::snapshots(&sharded, &config(), &snap_dir, &mut rec, &mut out.wrong)?;
        Some(Probes {
            server_path,
            frontier,
            stage,
            reply_bytes,
            add_bytes,
            snapshot_bytes,
        })
    } else {
        None
    };
    tracer.collect(rec);

    let reps = if args.trace { 1 } else { spec.snapshot_reps };
    let (loaded, snapshots) = round_trips(sharded, reps, &snap_dir, &mut cal)?;
    if loaded.len() != workflows.len() {
        out.wrong.push(format!(
            "loaded snapshot holds {} workflows, expected {}",
            loaded.len(),
            workflows.len()
        ));
    }
    let after_load = loaded.search_batch(&check_ids, K, 2);
    out.check_hits("after load", &inputs, after_load, expected);
    drop(loaded);
    out.check_oracle(&workflows, &inputs, expected);

    match probes {
        None => end_to_end_metrics(&mut out.metrics, &serving.setup_s, &load, &snapshots, &cal),
        Some(probes) => {
            per_layer_metrics(&mut out, &tracer, &load, &probes, &workflows, &cal);
            let counters: Vec<layers::QueryCounters> = probe
                .iter()
                .zip(probes.server_path.iter().zip(&probes.frontier))
                .map(
                    |((id, _), ((_, server), (_, frontier)))| layers::QueryCounters {
                        id: id.0.clone(),
                        server: *server,
                        frontier: *frontier,
                    },
                )
                .collect();
            write_trace_files(args, &tracer, &counters)?;
        }
    }
    Ok(out)
}

/// The corpus serving behind a running server, with the set-up times and
/// the expected hits of every query.
struct Serving {
    setup_s: Vec<f64>,
    expected: Vec<Vec<Hit>>,
    service: Arc<CorpusService>,
    server: ServerHandle,
}

/// What the load phases measured.
struct Load {
    /// The read window (its untraced half, in a traced run).
    reads: PhaseResult,
    /// The traced half of the read window.
    traced: Option<PhaseResult>,
    /// The write tail of the read-only workloads.
    tail: Option<PhaseResult>,
    stats: StatsSnapshot,
    peak_rss_mb: f64,
}

impl Load {
    fn phases(&self) -> impl Iterator<Item = &PhaseResult> {
        std::iter::once(&self.reads)
            .chain(&self.traced)
            .chain(&self.tail)
    }

    fn write_ms(&self) -> Vec<f64> {
        self.phases()
            .flat_map(|p| p.write_ms.iter().copied())
            .collect()
    }
}

/// Runs the read window (split into an untraced and a traced half in a
/// traced run), with the writer beside it on `churn`, then the write tail
/// of the read-only workloads: the same writer alone, so that every
/// workload times writes.  Calibration samples fall before, between and
/// after the phases.
fn drive(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    serving: &Serving,
    tracer: &Tracer,
    cal: &mut Calibration,
) -> Result<Load, String> {
    let no_churn = BTreeSet::new();
    let window_ctx = LoadContext {
        addr: serving.server.addr(),
        seed: args.seed,
        query_ids: &inputs.query_ids,
        expected: &serving.expected,
        stream: &inputs.stream,
        churned: if spec.concurrent_writes {
            &inputs.churned
        } else {
            &no_churn
        },
    };
    let pool = inputs.pool.as_slice();
    let window = Duration::from_secs(args.seconds);
    let cursor = AtomicUsize::new(0);
    let reads = |writes: Option<usize>, duration, traced| {
        let writes = writes.map(|offset| (pool, offset));
        let readers = spec.readers;
        run_phase(
            &window_ctx,
            readers,
            writes,
            duration,
            &cursor,
            tracer,
            traced,
        )
    };
    let beside = |offset: usize| spec.concurrent_writes.then_some(offset);
    cal.sample(CAL_SAMPLES);
    let (reads, traced) = if args.trace {
        let plain = reads(beside(0), window / 2, false);
        cal.sample(CAL_SAMPLES);
        let offset = plain.write_ms.len();
        let traced = reads(beside(offset), window / 2, true);
        (plain, Some(traced))
    } else {
        (reads(beside(0), window, false), None)
    };
    // The calibration array is the benchmark's, not the program's.
    let peak_rss_mb = peak_rss_mb()? - calib::ARRAY_BYTES as f64 / 1e6;
    cal.sample(CAL_SAMPLES);
    let tail = (!spec.concurrent_writes).then(|| {
        let cursor = AtomicUsize::new(0);
        let writes = Some((pool, 0));
        let tail = run_phase(
            &window_ctx,
            0,
            writes,
            WRITE_TAIL,
            &cursor,
            tracer,
            args.trace,
        );
        cal.sample(CAL_SAMPLES);
        tail
    });
    let stats = Client::connect(serving.server.addr())
        .stats()
        .map_err(|e| format!("STATS: {e}"))?;
    Ok(Load {
        reads,
        traced,
        tail,
        stats,
        peak_rss_mb,
    })
}

/// The in-process layer probes of a traced run.
struct Probes {
    server_path: Vec<(f64, SearchStats)>,
    frontier: Vec<(f64, SearchStats)>,
    stage: layers::StageCounts,
    reply_bytes: f64,
    add_bytes: f64,
    snapshot_bytes: usize,
}

/// Save/load timings and the snapshot's size.
struct Snapshots {
    save_s: Vec<f64>,
    load_s: Vec<f64>,
    bytes: u64,
}

/// `reps` snapshot round trips through `dir`; each saves the corpus the
/// previous one loaded.  Returns the last corpus loaded.
fn round_trips(
    mut corpus: ShardedCorpus,
    reps: usize,
    dir: &Path,
    cal: &mut Calibration,
) -> Result<(ShardedCorpus, Snapshots), String> {
    let mut snapshots = Snapshots {
        save_s: Vec::new(),
        load_s: Vec::new(),
        bytes: 0,
    };
    for _ in 0..reps {
        let _ = std::fs::remove_dir_all(dir);
        let started = Instant::now();
        corpus
            .save(dir)
            .map_err(|e| format!("save {}: {e}", dir.display()))?;
        snapshots.save_s.push(started.elapsed().as_secs_f64());
        snapshots.bytes = dir_bytes(dir)?;
        drop(corpus);
        cal.sample(STEP_SAMPLES);
        let started = Instant::now();
        corpus = ShardedCorpus::load(dir, config())
            .map_err(|e| format!("load {}: {e}", dir.display()))?;
        snapshots.load_s.push(started.elapsed().as_secs_f64());
        cal.sample(STEP_SAMPLES);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok((corpus, snapshots))
}

/// The end-to-end metrics, scaled to the reference speed (see `calib`).
/// The human-readable lines also give each timing as measured.
fn end_to_end_metrics(
    m: &mut Metrics,
    setup_s: &[f64],
    load: &Load,
    snapshots: &Snapshots,
    cal: &Calibration,
) {
    let reads = &load.reads;
    let qps = block_rate(&reads.search_done_s, QPS_BLOCKS);
    let writes = load.write_ms();
    let slowdown = cal.slowdown();
    println!(
        "host: calibration kernel median {:.3} ms over {} runs, {slowdown:.4} times the reference {} ms",
        cal.median_ms(),
        cal.runs(),
        calib::REFERENCE_MS
    );
    let durations = [
        ("setup_s", median(setup_s), "s"),
        ("search_p50_ms", median(&reads.search_ms), "ms"),
        ("write_p50_ms", median(&writes), "ms"),
        ("save_s", median(&snapshots.save_s), "s"),
        ("load_s", median(&snapshots.load_s), "s"),
    ];
    println!("measured search_qps {qps:.4} 1/s");
    m.put("search_qps", qps * slowdown, "1/s");
    for (name, measured, unit) in durations {
        println!("measured {name} {measured:.4} {unit}");
        m.put(name, measured / slowdown, unit);
    }
    m.put("peak_rss_mb", load.peak_rss_mb, "MB");
    m.put("snapshot_mb", snapshots.bytes as f64 / 1e6, "MB");
    println!(
        "samples: {} searches, {} writes, {} set-ups, {} snapshot round trips",
        reads.search_ms.len(),
        writes.len(),
        setup_s.len(),
        snapshots.save_s.len()
    );
}

/// Reads one `SearchStats` counter.
type Counter = fn(&SearchStats) -> usize;

/// The `SearchStats` counters reported per path, by name.
const COUNTERS: [(&str, Counter); 5] = [
    ("scored", |s| s.scored),
    ("pruned", |s| s.pruned),
    ("zero_bound", |s| s.zero_bound),
    ("candidates", |s| s.candidates),
    ("shared_token_candidates", |s| s.shared_token_candidates),
];

/// Sum of one counter over a path's probe queries.
fn total(path: &[(f64, SearchStats)], counter: Counter) -> f64 {
    path.iter().map(|(_, s)| counter(s) as f64).sum()
}

fn per_layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    load: &Load,
    probes: &Probes,
    workflows: &[Workflow],
    cal: &Calibration,
) {
    let layers = tracer.layers();
    let layer = |name: &str| layers.get(name).cloned().unwrap_or_default();
    // Self time per unit of work, in the given unit (1e3 = µs).
    let per = |name: &str, work: u64, unit_ns: f64| {
        layer(name).self_ns as f64 / work.max(1) as f64 / unit_ns
    };
    let (stats, stage) = (&load.stats, &probes.stage);
    // Per-layer timings are as measured: they have no bound.
    let reads_ms = &load.reads.search_ms;
    let (server, frontier) = (&probes.server_path, &probes.frontier);
    let queries = server.len().max(1) as f64;
    let server_ms: Vec<f64> = server.iter().map(|(ms, _)| *ms).collect();
    let frontier_ms: Vec<f64> = frontier.iter().map(|(ms, _)| *ms).collect();
    let write_late_ms: Vec<f64> = load
        .phases()
        .flat_map(|p| p.write_late_ms.iter().copied())
        .collect();
    let input_bytes: usize = workflows
        .iter()
        .map(|wf| serde_json::to_string(wf).map_or(0, |json| json.len()))
        .sum();
    let m = &mut out.metrics;
    m.put(
        "serve.server_search_p50_ms",
        stats.search_p50_us as f64 / 1e3,
        "ms",
    );
    m.put(
        "serve.server_search_p99_ms",
        stats.search_p99_us as f64 / 1e3,
        "ms",
    );
    m.put(
        "serve.unattributed_p50_ms",
        median(reads_ms) - median(&server_ms) - layer("protocol.codec").mean(1e6),
        "ms",
    );
    m.put("serve.shed", stats.shed as f64, "count");
    m.put("serve.degraded", stats.degraded as f64, "count");
    m.put("serve.bad_frames", stats.bad_frames as f64, "count");
    let retries: u64 = load.phases().map(|p| p.retries).sum();
    m.put("client.retries", retries as f64, "count");
    m.put("protocol.codec_us", layer("protocol.codec").mean(1e3), "us");
    m.put("protocol.reply_bytes", probes.reply_bytes, "bytes");
    m.put("protocol.add_bytes", probes.add_bytes, "bytes");
    m.put("shard.server_path_ms", mean(&server_ms), "ms");
    m.put(
        "shard.server_path_scored_per_query",
        total(server, |s| s.scored) / queries,
        "count",
    );
    m.put("shard.frontier_path_ms", mean(&frontier_ms), "ms");
    m.put(
        "shard.frontier_scored_per_query",
        total(frontier, |s| s.scored) / queries,
        "count",
    );
    let candidates = total(frontier, |s| s.candidates);
    m.put(
        "shard.pruned_fraction",
        (candidates - total(frontier, |s| s.scored)) / candidates.max(1.0),
        "ratio",
    );
    m.put(
        "shard.zero_bound_per_query",
        total(frontier, |s| s.zero_bound) / queries,
        "count",
    );
    m.put("shard.remove_ms", layer("shard.remove").mean(1e6), "ms");
    m.put("shard.add_ms", layer("shard.add").mean(1e6), "ms");
    m.put("profile.build_s", layer("profile.build").total_s(), "s");
    m.put("index.build_s", layer("index.build").total_s(), "s");
    m.put(
        "profile.query_features_us",
        layer("profile.query_features").mean(1e3),
        "us",
    );
    m.put(
        "profile.bound_us_per_candidate",
        per("profile.bound", stage.candidates, 1e3),
        "us",
    );
    m.put(
        "profile.score_us_per_candidate",
        per("profile.score", stage.scored_pairs, 1e3),
        "us",
    );
    m.put(
        "index.overlap_us",
        per("index.overlap", stage.queries, 1e3),
        "us",
    );
    m.put("index.sort_us", per("index.sort", stage.queries, 1e3), "us");
    m.put(
        "index.shared_token_candidates_per_query",
        stage.shared_token_candidates as f64 / stage.queries.max(1) as f64,
        "count",
    );
    m.put(
        "text.intersect_ns",
        per("text.intersect", stage.scored_pairs, 1.0),
        "ns",
    );
    m.put("profile.remove_ms", layer("profile.remove").mean(1e6), "ms");
    m.put("index.remove_ms", layer("index.remove").mean(1e6), "ms");
    m.put(
        "model.workflow_decode_us",
        layer("model.workflow_decode").mean(1e3),
        "us",
    );
    m.put("snapshot.encode_s", layer("snapshot.encode").total_s(), "s");
    m.put("snapshot.decode_s", layer("snapshot.decode").total_s(), "s");
    m.put("snapshot.write_s", layer("snapshot.write").total_s(), "s");
    m.put("snapshot.read_s", layer("snapshot.read").total_s(), "s");
    m.put(
        "snapshot.bytes_per_input_byte",
        probes.snapshot_bytes as f64 / input_bytes.max(1) as f64,
        "ratio",
    );
    m.put("search_p99_ms", quantile(reads_ms, 0.99), "ms");
    m.put("write_p99_ms", quantile(&load.write_ms(), 0.99), "ms");
    m.put("gen.write_late_ms", quantile(&write_late_ms, 0.99), "ms");
    let traced_ms = load.traced.as_ref().map_or(&[][..], |p| &p.search_ms[..]);
    m.put(
        "trace.overhead_p50_ms",
        median(traced_ms) - median(reads_ms),
        "ms",
    );
    m.put("host.calib_ms", cal.median_ms(), "ms");
    for (path, runs) in [("server", server), ("frontier", frontier)] {
        for (name, counter) in COUNTERS {
            m.put(
                &format!("counters.{path}.{name}"),
                total(runs, counter),
                "count",
            );
        }
    }
    if stage.candidates as f64 != candidates
        || stage.shared_token_candidates as f64 != total(frontier, |s| s.shared_token_candidates)
    {
        out.wrong
            .push("stage replay disagrees with the frontier's candidate counters".to_string());
    }
}

/// Builds the sharded corpus `reps` times (each build timed with its
/// service wrapping, server start and first reply), computes the expected
/// hits of every query on the last build outside the timing, and leaves
/// that build serving.
fn setup(
    workflows: &[Workflow],
    reps: usize,
    query_ids: &[String],
    cal: &mut Calibration,
) -> Result<Serving, String> {
    let mut setup_s = Vec::with_capacity(reps);
    cal.sample(STEP_SAMPLES);
    for rep in 0..reps {
        let input = workflows.to_vec();
        let started = Instant::now();
        let sharded = ShardedCorpus::build(config(), SHARDS, input)
            .with_parallelism(SearchParallelism::Sequential);
        let mut secs = started.elapsed().as_secs_f64();
        let last = rep + 1 == reps;
        let expected = last.then(|| expected_hits(&sharded, query_ids));
        let started = Instant::now();
        let service = Arc::new(CorpusService::new(sharded).with_threads(2));
        let config = ServerConfig {
            workers: SERVER_WORKERS,
            default_deadline_ms: 0,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&service), config, None)
            .map_err(|e| format!("server start: {e}"))?;
        Client::connect(server.addr())
            .ping()
            .map_err(|e| format!("first ping: {e}"))?;
        secs += started.elapsed().as_secs_f64();
        setup_s.push(secs);
        cal.sample(STEP_SAMPLES);
        match expected {
            Some(expected) => {
                return Ok(Serving {
                    setup_s,
                    expected,
                    service,
                    server,
                })
            }
            None => {
                server.shutdown();
                drop(sole_owner(service)?);
            }
        }
    }
    Err("no set-up repetitions".to_string())
}

/// `ShardedCorpus::search` for every query, on two threads.
fn expected_hits(sharded: &ShardedCorpus, query_ids: &[String]) -> Vec<Vec<Hit>> {
    let mut expected = vec![Vec::new(); query_ids.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                scope.spawn(move || {
                    (t..query_ids.len())
                        .step_by(2)
                        .map(|i| {
                            let id = WorkflowId::new(query_ids[i].clone());
                            (i, sharded.search(&id, K).map(layers::hits_of))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, hits) in handle.join().expect("expected-hits worker panicked") {
                expected[i] = hits.unwrap_or_default();
            }
        }
    });
    expected
}

/// Takes the service back once the server's reader threads (which exit
/// within one read timeout of their connection closing) have let go.
fn sole_owner(mut service: Arc<CorpusService>) -> Result<CorpusService, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Arc::try_unwrap(service) {
            Ok(owned) => return Ok(owned),
            Err(shared) if Instant::now() < deadline => {
                service = shared;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return Err("server threads still hold the corpus".to_string()),
        }
    }
}

/// Peak resident set size so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// Writes the spans (JSON lines) and the exact per-query counters of both
/// search paths next to the benchmark.
fn write_trace_files(
    args: &Args,
    tracer: &Tracer,
    counters: &[layers::QueryCounters],
) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let spans = dir.join(format!("trace-{stem}.jsonl"));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    let stats_json = |s: &wf_repo::SearchStats| {
        format!(
            "{{\"scored\": {}, \"pruned\": {}, \"zero_bound\": {}, \"candidates\": {}, \
             \"shared_token_candidates\": {}}}",
            s.scored, s.pruned, s.zero_bound, s.candidates, s.shared_token_candidates
        )
    };
    let rows: Vec<String> = counters
        .iter()
        .map(|c| {
            format!(
                "  {{\"query\": \"{}\", \"server\": {}, \"frontier\": {}}}",
                wf_bench::json_escape(&c.id),
                stats_json(&c.server),
                stats_json(&c.frontier)
            )
        })
        .collect();
    let path = dir.join(format!("counters-{stem}.json"));
    std::fs::write(&path, format!("[\n{}\n]\n", rows.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace: {} and {}", spans.display(), path.display());
    Ok(())
}
