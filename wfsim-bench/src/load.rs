//! Load generation against the running `wf-serve` server: closed-loop
//! readers and the open-loop churn writer, with every reply checked.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wf_model::Workflow;
use wf_serve::{Client, Hit, SearchOutcome};

use crate::rng::Rng;
use crate::trace::Tracer;

/// Top-k of every search.
pub const K: usize = 10;

/// Latency charged to a failed request: it misses any limit up to the
/// client's per-attempt timeout.
const FAILED_LATENCY_MS: f64 = 2000.0;

/// One write cycle (remove + re-add, two requests on one connection)
/// falls due in every 40 ms slot, at a seeded uniform time within it: 50
/// write requests per second.  The random offset keeps the writer from
/// falling into step with a closed-loop reader, whose searches take about
/// half a slot at 10k, so that each cycle meets the reader at a random
/// phase; the slots keep bursts to two cycles.
const WRITE_SLOT: Duration = Duration::from_millis(40);

/// Read-only inputs of a load phase.
pub struct LoadContext<'a> {
    pub addr: SocketAddr,
    /// Seeds the writer's offsets within its slots.
    pub seed: u64,
    /// The query set; replies are checked against `expected[i]`.
    pub query_ids: &'a [String],
    pub expected: &'a [Vec<Hit>],
    /// Query indices in the order the readers take them.
    pub stream: &'a [u32],
    /// Ids the writer removes and re-adds during the phase (empty when
    /// the phase has no concurrent writes): a reply may lack exactly
    /// these expected hits.
    pub churned: &'a BTreeSet<String>,
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseResult {
    pub search_ms: Vec<f64>,
    /// When each correct search completed, in seconds from the phase
    /// start.
    pub search_done_s: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub write_late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    /// Wrong, degraded, failed or retried requests: any entry fails the
    /// run.
    pub wrong: Vec<String>,
}

impl PhaseResult {
    fn absorb(&mut self, other: PhaseResult) {
        self.search_ms.extend(other.search_ms);
        self.search_done_s.extend(other.search_done_s);
        self.write_ms.extend(other.write_ms);
        self.write_late_ms.extend(other.write_late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.wrong.extend(other.wrong);
    }
}

/// Runs `readers` closed-loop search connections and, when `writes` is
/// given, one open-loop writer connection, all for `duration`.  The
/// writer cycles through `writes`' pool of resident workflows from the
/// given offset, and always finishes a started cycle, so every id it
/// removed is resident again afterwards.
pub fn run_phase(
    ctx: &LoadContext<'_>,
    readers: usize,
    writes: Option<(&[Workflow], usize)>,
    duration: Duration,
    cursor: &AtomicUsize,
    tracer: &Tracer,
    traced: bool,
) -> PhaseResult {
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|scope| {
        let reader_handles: Vec<_> = (0..readers)
            .map(|r| {
                scope.spawn(move || read_loop(ctx, r, start, deadline, cursor, tracer, traced))
            })
            .collect();
        let writer = writes.map(|(pool, offset)| {
            scope.spawn(move || write_loop(ctx, pool, offset, start, deadline, tracer, traced))
        });
        let mut total = PhaseResult::default();
        for handle in reader_handles {
            total.absorb(handle.join().expect("reader thread panicked"));
        }
        if let Some(handle) = writer {
            total.absorb(handle.join().expect("writer thread panicked"));
        }
        total
    })
}

fn read_loop(
    ctx: &LoadContext<'_>,
    reader: usize,
    start: Instant,
    deadline: Instant,
    cursor: &AtomicUsize,
    tracer: &Tracer,
    traced: bool,
) -> PhaseResult {
    let mut client = Client::new(ctx.addr, client_config(reader as u64));
    let mut rec = tracer.recorder(traced);
    let mut out = PhaseResult::default();
    while Instant::now() < deadline {
        // ordering: Relaxed — a ticket into the precomputed query stream;
        // publishes no other data.
        let ticket = cursor.fetch_add(1, Ordering::Relaxed);
        let qi = ctx.stream[ticket % ctx.stream.len()] as usize;
        let retries_before = client.retries();
        let sent = Instant::now();
        let reply = rec.span("client.search", |_| {
            client.search(&ctx.query_ids[qi], K as u32, 0)
        });
        let done = Instant::now();
        let ms = (done - sent).as_secs_f64() * 1e3;
        out.attempted += 1;
        let retried = client.retries() > retries_before;
        match reply {
            Ok(outcome) => match check_reply(ctx, qi, &outcome) {
                Ok(()) if !retried => {
                    out.search_ms.push(ms);
                    out.search_done_s.push((done - start).as_secs_f64());
                }
                Ok(()) => fail(&mut out, ms, false, || {
                    format!("search {}: answered only after a retry", ctx.query_ids[qi])
                }),
                Err(why) => fail(&mut out, ms, false, || {
                    format!("search {}: {why}", ctx.query_ids[qi])
                }),
            },
            Err(e) => fail(&mut out, ms, false, || {
                format!("search {}: {e}", ctx.query_ids[qi])
            }),
        }
    }
    out.retries = client.retries();
    tracer.collect(rec);
    out
}

fn write_loop(
    ctx: &LoadContext<'_>,
    pool: &[Workflow],
    offset: usize,
    start: Instant,
    deadline: Instant,
    tracer: &Tracer,
    traced: bool,
) -> PhaseResult {
    let mut client = Client::new(ctx.addr, client_config(0xC4A0));
    let mut rec = tracer.recorder(traced);
    let mut out = PhaseResult::default();
    let mut offsets = Rng::new(ctx.seed, 0xC4A0 + offset as u64);
    for cycle in 0u32.. {
        let due = start + WRITE_SLOT * cycle + WRITE_SLOT.mul_f64(offsets.next_f64());
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.write_late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let wf = &pool[(offset + cycle as usize) % pool.len()];
        let retries_before = client.retries();
        let (removed, added) = rec.span("client.write", |rec| {
            let removed = rec.span("client.remove", |_| client.remove(wf.id.as_str()));
            let added = rec.span("client.add", |_| client.add(wf));
            (removed, added)
        });
        let ms = due.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        let retried = client.retries() > retries_before;
        match (removed, added) {
            (Ok(true), Ok(_)) if !retried => out.write_ms.push(ms),
            (Ok(true), Ok(_)) => fail(&mut out, ms, true, || {
                format!("write {}: answered only after a retry", wf.id)
            }),
            (Ok(false), _) => fail(&mut out, ms, true, || {
                format!("remove {}: id was not resident", wf.id)
            }),
            (Err(e), _) => fail(&mut out, ms, true, || format!("remove {}: {e}", wf.id)),
            (_, Err(e)) => fail(&mut out, ms, true, || format!("add {}: {e}", wf.id)),
        }
    }
    out.retries = client.retries();
    tracer.collect(rec);
    out
}

/// Counts a failed operation, charges it a latency that misses any limit
/// and records why it failed: a failed, shed or retried request makes the
/// run incorrect, because at the seed every request must succeed on its
/// first attempt.
fn fail(out: &mut PhaseResult, ms: f64, write: bool, why: impl FnOnce() -> String) {
    out.failed += 1;
    out.wrong.push(why());
    let samples = if write {
        &mut out.write_ms
    } else {
        &mut out.search_ms
    };
    samples.push(ms.max(FAILED_LATENCY_MS));
}

fn client_config(seed: u64) -> wf_serve::ClientConfig {
    wf_serve::ClientConfig {
        seed: 0x5EED ^ seed,
        ..wf_serve::ClientConfig::default()
    }
}

/// Checks one reply.  With no concurrent writes it must equal the
/// expected hits bit for bit, tie order included.  Under churn it must be
/// well formed and consistent with the expected hits: every expected hit
/// it holds carries the expected score, every expected hit it lacks is a
/// churned id, and every other hit scores no higher than the expected
/// k-th hit.
fn check_reply(ctx: &LoadContext<'_>, qi: usize, got: &SearchOutcome) -> Result<(), String> {
    if got.degraded || !got.answered.iter().all(|&a| a) {
        return Err("degraded reply".to_string());
    }
    let want = &ctx.expected[qi];
    if ctx.churned.is_empty() {
        return same_hits(&got.hits, want);
    }
    let query = &ctx.query_ids[qi];
    if got.hits.len() != want.len() {
        return Err(format!("{} hits, expected {}", got.hits.len(), want.len()));
    }
    for pair in got.hits.windows(2) {
        let ordered = pair[0].score > pair[1].score
            || (pair[0].score == pair[1].score && pair[0].id < pair[1].id);
        if !ordered {
            return Err(format!("hits out of order at {}", pair[1].id));
        }
    }
    let floor = want.last().map_or(f64::INFINITY, |h| h.score);
    for hit in &got.hits {
        if &hit.id == query {
            return Err("query returned itself".to_string());
        }
        match want.iter().find(|w| w.id == hit.id) {
            Some(w) if w.score.to_bits() != hit.score.to_bits() => {
                return Err(format!("{} scored {} not {}", hit.id, hit.score, w.score));
            }
            Some(_) => {}
            None if hit.score > floor => {
                return Err(format!(
                    "{} scored {} above the expected floor",
                    hit.id, hit.score
                ));
            }
            None => {}
        }
    }
    for w in want {
        if !got.hits.iter().any(|h| h.id == w.id) && !ctx.churned.contains(&w.id) {
            return Err(format!("expected hit {} missing", w.id));
        }
    }
    Ok(())
}

/// Bit-for-bit equality of two ranked hit lists.
pub fn same_hits(got: &[Hit], want: &[Hit]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} hits, expected {}", got.len(), want.len()));
    }
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        if g.id != w.id || g.score.to_bits() != w.score.to_bits() {
            return Err(format!(
                "rank {rank}: got {} {}, expected {} {}",
                g.id, g.score, w.id, w.score
            ));
        }
    }
    Ok(())
}
