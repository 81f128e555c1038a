//! In-process probes of each layer's public functions, run on the
//! workload's own queries, frames and workflows.  Each call sits in a span
//! named after the layer it times; `main` turns the spans' self time into
//! the per-layer metrics.

use std::hint::black_box;
use std::path::Path;

use wf_model::{Workflow, WorkflowId};
use wf_repo::{
    sort_best_bound_first, CancelToken, RankedCandidate, SearchHit, SearchStats, TokenIndex,
};
use wf_serve::{
    decode_request, decode_response, encode_request, encode_response, Hit, Request, Response,
};
use wf_sim::{
    Corpus, CorpusService, ProfiledMeasure, ShardedCorpus, SimilarityConfig, WorkflowProfile,
};

use crate::load::{same_hits, K};
use crate::trace::Recorder;

/// The pruning counters of one query on both search paths.
pub struct QueryCounters {
    pub id: String,
    pub server: SearchStats,
    pub frontier: SearchStats,
}

/// Counts the stage probe made, to normalise its self times.
#[derive(Default)]
pub struct StageCounts {
    pub queries: u64,
    pub candidates: u64,
    pub shared_token_candidates: u64,
    pub scored_pairs: u64,
}

pub fn hits_of(hits: Vec<SearchHit>) -> Vec<Hit> {
    hits.into_iter()
        .map(|h| Hit {
            id: h.id.0,
            score: h.score,
        })
        .collect()
}

/// The path `wf-serve` runs: `CorpusService::search_deadline_with` with a
/// never-firing token and an open gate.  Returns per-query milliseconds
/// and counters.
pub fn server_path(
    service: &CorpusService,
    probe: &[(WorkflowId, &[Hit])],
    rec: &mut Recorder,
    wrong: &mut Vec<String>,
) -> Vec<(f64, SearchStats)> {
    time_path("shard.server_path", probe, rec, wrong, |id| {
        service
            .search_deadline_with(id, K, &CancelToken::never(), |_| true)
            .map(|found| (found.hits, found.stats, found.degraded))
    })
}

/// The global-frontier path the in-process benches time:
/// `ShardedCorpus::search_with_stats`.
pub fn frontier_path(
    sharded: &ShardedCorpus,
    probe: &[(WorkflowId, &[Hit])],
    rec: &mut Recorder,
    wrong: &mut Vec<String>,
) -> Vec<(f64, SearchStats)> {
    time_path("shard.frontier_path", probe, rec, wrong, |id| {
        sharded
            .search_with_stats(id, K)
            .map(|(hits, stats)| (hits, stats, false))
    })
}

/// Times `search` on every probe query in a span named `path`, and checks
/// that it answers every query exactly and undegraded.
fn time_path(
    path: &'static str,
    probe: &[(WorkflowId, &[Hit])],
    rec: &mut Recorder,
    wrong: &mut Vec<String>,
    mut search: impl FnMut(&WorkflowId) -> Option<(Vec<SearchHit>, SearchStats, bool)>,
) -> Vec<(f64, SearchStats)> {
    probe
        .iter()
        .map(|(id, want)| {
            let start = std::time::Instant::now();
            let outcome = rec.span(path, |_| search(id));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let Some((hits, stats, degraded)) = outcome else {
                wrong.push(format!("{path} {id}: not resident"));
                return (ms, SearchStats::default());
            };
            if degraded {
                wrong.push(format!("{path} {id}: degraded"));
            }
            if let Err(why) = same_hits(&hits_of(hits), want) {
                wrong.push(format!("{path} {id}: {why}"));
            }
            (ms, stats)
        })
        .collect()
}

/// Replays the frontier path's stages through the layers' public
/// functions: query features and per-shard binding, token-overlap
/// counting, bounding every candidate, best-bound-first sorting, then
/// scoring (and intersecting label tokens of) the candidates the frontier
/// scan visited — its first `visited[q]` candidates in global bound order.
pub fn stages(
    sharded: &ShardedCorpus,
    probe: &[(WorkflowId, &[Hit])],
    visited: &[usize],
    rec: &mut Recorder,
) -> StageCounts {
    let shards = sharded.shards();
    let fronts = shards.len();
    let mut counts = StageCounts::default();
    for ((id, _), &visit) in probe.iter().zip(visited) {
        let Some(wf) = sharded.get(id) else {
            continue;
        };
        counts.queries += 1;
        rec.span("probe.stages", |rec| {
            let bound: Vec<WorkflowProfile> = rec.span("profile.query_features", |_| {
                let features = shards[0].measure().query_features(wf);
                shards
                    .iter()
                    .map(|shard| shard.measure().bind_query(&features))
                    .collect()
            });
            let mut merged: Vec<RankedCandidate> = Vec::new();
            for (front, shard) in shards.iter().enumerate() {
                let query = &bound[front];
                let overlaps = rec.span("index.overlap", |_| {
                    shard
                        .token_index()
                        .overlap_counts(query.label_tokens().ids())
                });
                let measure = shard.measure();
                let mut ranked = rec.span("profile.bound", |_| {
                    let mut ranked = Vec::with_capacity(overlaps.len());
                    for (index, &overlap) in overlaps.iter().enumerate() {
                        if measure.ids()[index] == *id {
                            continue;
                        }
                        let bound = measure
                            .upper_bound_profile(query, index)
                            .unwrap_or(f64::INFINITY);
                        ranked.push(RankedCandidate {
                            index: index * fronts + front,
                            bound,
                            overlap,
                        });
                    }
                    ranked
                });
                counts.candidates += ranked.len() as u64;
                counts.shared_token_candidates +=
                    ranked.iter().filter(|c| c.overlap > 0).count() as u64;
                rec.span("index.sort", |_| sort_best_bound_first(&mut ranked));
                merged.extend(ranked);
            }
            // The global merge is the benchmark's own work (root self time).
            sort_best_bound_first(&mut merged);
            let pairs: Vec<(usize, usize)> = merged[..visit.min(merged.len())]
                .iter()
                .filter(|c| c.bound > 0.0)
                .map(|c| (c.index % fronts, c.index / fronts))
                .collect();
            counts.scored_pairs += pairs.len() as u64;
            rec.span("profile.score", |_| {
                for &(front, local) in &pairs {
                    black_box(shards[front].measure().score_profile(&bound[front], local));
                }
            });
            rec.span("text.intersect", |_| {
                for &(front, local) in &pairs {
                    let candidate = shards[front].measure().profile(local).label_tokens();
                    black_box(bound[front].label_tokens().intersection_len(candidate));
                }
            });
        });
    }
    counts
}

/// Encodes and decodes the workload's real search frames (request and
/// reply) and add frames.  Returns mean reply and add frame bytes.
pub fn codec(
    probe: &[(WorkflowId, &[Hit])],
    shard_count: usize,
    adds: &[Workflow],
    rec: &mut Recorder,
    wrong: &mut Vec<String>,
) -> (f64, f64) {
    let mut reply_bytes = 0usize;
    for (rid, (id, want)) in probe.iter().enumerate() {
        let rid = rid as u64 + 1;
        let ok = rec.span("protocol.codec", |_| {
            let request = encode_request(
                rid,
                &Request::Search {
                    query: id.0.clone(),
                    k: K as u32,
                    deadline_ms: 0,
                },
            );
            let request_ok = matches!(decode_request(&request[4..]), Ok((r, _)) if r == rid);
            let reply = encode_response(
                rid,
                &Response::Hits {
                    degraded: false,
                    answered: vec![true; shard_count],
                    hits: want.to_vec(),
                },
            );
            reply_bytes += reply.len();
            let reply_ok = matches!(decode_response(&reply[4..]),
                Ok((r, Response::Hits { hits, .. })) if r == rid && hits.as_slice() == *want);
            request_ok && reply_ok
        });
        if !ok {
            wrong.push(format!("codec round trip of {id} changed the frame"));
        }
    }
    let add_bytes: usize = adds
        .iter()
        .map(|wf| {
            let workflow_json = serde_json::to_string(wf).expect("workflows serialize");
            encode_request(0, &Request::Add { workflow_json }).len()
        })
        .sum();
    (
        reply_bytes as f64 / probe.len().max(1) as f64,
        add_bytes as f64 / adds.len().max(1) as f64,
    )
}

/// Decodes the `Add` payloads the way the server does.
pub fn model_decode(adds: &[Workflow], rec: &mut Recorder, wrong: &mut Vec<String>) {
    for wf in adds {
        let json = serde_json::to_string(wf).expect("workflows serialize");
        let decoded = rec.span("model.workflow_decode", |_| {
            serde_json::from_str::<Workflow>(&json)
        });
        match decoded {
            Ok(back) if back.id == wf.id && back.modules.len() == wf.modules.len() => {}
            _ => wrong.push(format!(
                "workflow {} did not survive its JSON round trip",
                wf.id
            )),
        }
    }
}

/// Removes and re-adds workflows through `CorpusService`.
pub fn writes(
    service: &CorpusService,
    pool: &[Workflow],
    rec: &mut Recorder,
    wrong: &mut Vec<String>,
) {
    for wf in pool {
        let copy = wf.clone();
        let removed = rec.span("shard.remove", |_| service.remove(&wf.id));
        if removed.is_none() {
            wrong.push(format!("remove {}: id was not resident", wf.id));
        }
        rec.span("shard.add", |_| service.add(copy));
    }
}

/// Builds every shard's profiles and token index from its workflows, then
/// removes `removals` workflows from the middle of each.
pub fn builds(sharded: &ShardedCorpus, removals: usize, rec: &mut Recorder) -> u64 {
    let mut removed = 0u64;
    for shard in sharded.shards() {
        let workflows = shard.workflows().to_vec();
        let mut measure = rec.span("profile.build", |_| {
            ProfiledMeasure::new(sharded.config().clone(), &workflows)
        });
        let mut index = rec.span("index.build", |_| TokenIndex::build(&measure));
        for _ in 0..removals.min(measure.len()) {
            let at = measure.len() / 2;
            rec.span("profile.remove", |_| measure.remove_workflow(at));
            rec.span("index.remove", |_| index.remove_workflow(at));
            removed += 1;
        }
    }
    removed
}

/// Encodes every shard's snapshot, writes it to a file in `dir`, reads it
/// back and decodes it — the steps of a save and a load, timed apart.
/// Returns the snapshot bytes.
pub fn snapshots(
    sharded: &ShardedCorpus,
    config: &SimilarityConfig,
    dir: &Path,
    rec: &mut Recorder,
    wrong: &mut Vec<String>,
) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut bytes = 0;
    for (i, shard) in sharded.shards().iter().enumerate() {
        let text = rec.span("snapshot.encode", |_| shard.to_snapshot_string());
        bytes += text.len();
        let path = dir.join(format!("probe-shard-{i}.snap"));
        rec.span("snapshot.write", |_| std::fs::write(&path, &text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        drop(text);
        let text = rec
            .span("snapshot.read", |_| std::fs::read_to_string(&path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = std::fs::remove_file(&path);
        let back = rec.span("snapshot.decode", |_| {
            Corpus::from_snapshot_str(&text, config.clone())
        });
        match back {
            Ok(corpus) if corpus.len() == shard.len() => {}
            _ => wrong.push(format!(
                "shard {i} snapshot did not decode to the same corpus"
            )),
        }
    }
    Ok(bytes)
}
