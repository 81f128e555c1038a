//! End-to-end degradation-path tests over real loopback sockets.
//!
//! Each test drives the full stack — client, framed protocol, admission
//! control, worker pool, deadline-aware scatter-gather, fault injection —
//! and asserts one of the three degradation paths the serving layer
//! promises, deterministically from a fault seed:
//!
//! 1. **Deadline** — a deadlined query against deliberately delayed shards
//!    returns inside the SLO, flagged degraded, with an honest per-shard
//!    answer map: shard faults act at admission, before the one scan, so
//!    a deadline that fires there leaves no hits and no shard answered.
//! 2. **Saturation** — a request burst against a tiny worker pool is shed
//!    with typed `Overloaded` replies instead of queueing without bound,
//!    and every request is answered exactly once.
//! 3. **Connection drops** — a client retrying with jittered backoff
//!    recovers from injected mid-frame reply drops, with request ids
//!    accounting for every in-flight query.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use wf_corpus::{generate_taverna_corpus, TavernaCorpusConfig};
use wf_model::{ModuleType, WorkflowBuilder, WorkflowId};
use wf_serve::{
    Client, ClientConfig, ClientError, FaultPlan, Request, Response, ServeError, Server,
    ServerConfig,
};
use wf_sim::{CorpusService, ShardedCorpus, SimilarityConfig};

/// The one replay seed these tests inject faults from.  Printed in every
/// assertion context so a failure names the seed that reproduces it.
const FAULT_SEED: u64 = 0xD15C0;

fn build_service(size: usize, shards: usize) -> (Arc<CorpusService>, Vec<String>) {
    let workflows = generate_taverna_corpus(&TavernaCorpusConfig::small(size, 21)).0;
    let ids: Vec<String> = workflows.iter().map(|w| w.id.0.clone()).collect();
    let service = Arc::new(CorpusService::new(ShardedCorpus::build(
        SimilarityConfig::best_module_sets(),
        shards,
        workflows,
    )));
    (service, ids)
}

fn fast_client(addr: std::net::SocketAddr, seed: u64) -> Client {
    Client::new(
        addr,
        ClientConfig {
            request_timeout: Duration::from_secs(5),
            max_retries: 8,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(80),
            seed,
        },
    )
}

/// Degradation path 1: the deadline fires while a stalled shard holds
/// admission, before the search's one scan starts.  The reply comes back
/// near the deadline, degraded, with no hits and every shard unanswered:
/// no scan work comes before the gates, so none can survive them.
#[test]
fn deadline_firing_during_a_stalled_admission_degrades_within_slo() {
    let (service, ids) = build_service(40, 4);
    let plan = FaultPlan::new(FAULT_SEED).delay_shards(&[1, 2], Duration::from_millis(400));
    let server = Server::start(
        Arc::clone(&service),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        Some(plan),
    )
    .expect("server starts");

    let mut client = fast_client(server.addr(), 1);
    let deadline_ms = 80u32;
    let started = Instant::now();
    let outcome = client
        .search(&ids[0], 10, deadline_ms)
        .expect("deadlined search still answers");
    let elapsed = started.elapsed();

    // SLO: the reply must come back near the deadline, nowhere near the
    // 400ms the stalled shards would have cost (seed {FAULT_SEED}).
    assert!(
        elapsed < Duration::from_millis(300),
        "deadline {deadline_ms}ms blew the SLO: took {elapsed:?} (seed {FAULT_SEED:#x})"
    );
    assert!(outcome.degraded, "stalled shards must degrade the result");
    assert_eq!(
        outcome.answered,
        vec![false; 4],
        "a deadline during admission leaves every shard unanswered"
    );
    assert!(
        outcome.hits.is_empty(),
        "no scan ran, so no hit can be returned"
    );

    let stats = server.metrics();
    assert!(stats.degraded >= 1, "server must count the degraded reply");
    assert!(
        stats.faults_injected >= 1,
        "the shard delay fault must have fired"
    );
    server.shutdown();
}

/// The same fault plan replayed from the same seed yields the same
/// degraded answer map — the property that makes a failing run's printed
/// seed actually reproducible.
#[test]
fn deadline_degradation_is_deterministic_per_seed() {
    let mut replies = Vec::new();
    for _run in 0..2 {
        let (service, ids) = build_service(24, 4);
        let plan = FaultPlan::new(FAULT_SEED).delay_shards(&[1, 3], Duration::from_millis(400));
        let server =
            Server::start(service, ServerConfig::default(), Some(plan)).expect("server starts");
        let mut client = fast_client(server.addr(), 2);
        let outcome = client
            .search(&ids[0], 5, 80)
            .expect("deadlined search answers");
        replies.push((outcome.degraded, outcome.answered, outcome.hits));
        server.shutdown();
    }
    assert_eq!(
        replies[0], replies[1],
        "same corpus, same fault seed, same deadline → same degraded reply"
    );
}

/// Degradation path 2: a burst against workers=1/queue_depth=2 sheds with
/// typed Overloaded replies carrying the retry hint — bounded queueing,
/// every request answered exactly once — and the system recovers once the
/// burst drains.
#[test]
fn saturation_sheds_with_typed_overloaded_instead_of_queueing() {
    let (service, ids) = build_service(32, 4);
    // Slow every shard so an admitted search occupies its worker long
    // enough for the whole burst to arrive while it runs.
    let plan = FaultPlan::new(FAULT_SEED).delay_shards(&[0, 1, 2, 3], Duration::from_millis(100));
    let retry_after_ms = 40u32;
    let server = Server::start(
        Arc::clone(&service),
        ServerConfig {
            workers: 1,
            queue_depth: 2,
            retry_after_ms,
            ..ServerConfig::default()
        },
        Some(plan),
    )
    .expect("server starts");
    let addr = server.addr();

    const BURST: usize = 16;
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(BURST));
    let handles: Vec<_> = (0..BURST)
        .map(|i| {
            let ok = Arc::clone(&ok);
            let shed = Arc::clone(&shed);
            let barrier = Arc::clone(&barrier);
            let query = ids[i % ids.len()].clone();
            std::thread::spawn(move || {
                // No retries: each thread reports its request's one true
                // outcome so the shed/served accounting is exact.
                let mut client = Client::new(
                    addr,
                    ClientConfig {
                        request_timeout: Duration::from_secs(10),
                        max_retries: 0,
                        ..ClientConfig::default()
                    },
                );
                barrier.wait();
                match client.search(&query, 5, 0) {
                    Ok(outcome) => {
                        assert!(!outcome.hits.is_empty());
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ClientError::Exhausted { last, .. }) => {
                        assert!(
                            last.contains(&format!("hint {retry_after_ms}ms")),
                            "shed reply must carry the configured retry hint, got: {last}"
                        );
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(other) => panic!("unexpected failure under saturation: {other}"),
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("burst thread");
    }

    let ok = ok.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    assert_eq!(
        ok + shed,
        BURST as u64,
        "every request in the burst gets exactly one answer"
    );
    assert!(ok >= 1, "the admission window serves some of the burst");
    assert!(
        shed >= BURST as u64 - 6,
        "a 1-worker/depth-2 server must shed most of a {BURST}-request burst, shed only {shed}"
    );
    let stats = server.metrics();
    assert_eq!(stats.shed, shed, "server-side shed accounting matches");
    assert!(
        stats.shed >= BURST as u64 - 6,
        "shedding, not unbounded queueing"
    );

    // Recovery: once the burst has drained, a retrying client succeeds.
    let mut client = fast_client(addr, 3);
    let outcome = client.search(&ids[0], 5, 0).expect("server recovered");
    assert!(!outcome.degraded);
    server.shutdown();
}

/// No head-of-line blocking: with two workers, one busy with a stalled
/// search, a queued job goes to the idle worker instead of waiting behind
/// the stall.  The two jobs after the search are Adds with malformed
/// workflow JSON: a worker answers them `BadRequest` without touching the
/// corpus, so the only thing they can wait on is the queue (a valid write
/// would also wait for the stalled search's shard read locks).
#[test]
fn queued_jobs_do_not_wait_behind_a_slow_search_while_a_worker_idles() {
    let (service, ids) = build_service(24, 4);
    // Every search visits shard 0, so every search stalls 400ms.
    let plan = FaultPlan::new(FAULT_SEED).delay_shards(&[0], Duration::from_millis(400));
    let server = Server::start(
        service,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        Some(plan),
    )
    .expect("server starts");
    let addr = server.addr();
    let mut writers: Vec<Client> = (0..2).map(|i| fast_client(addr, 10 + i)).collect();
    for client in &mut writers {
        client.ping().expect("connect before the stall");
    }

    let query = ids[0].clone();
    let slow = std::thread::spawn(move || fast_client(addr, 9).search(&query, 5, 0));
    // The delay fault counts itself before it stalls: from then on the
    // search occupies a worker for 400ms.
    let waiting = Instant::now();
    while server.metrics().faults_injected == 0 {
        assert!(
            waiting.elapsed() < Duration::from_secs(5),
            "search never ran"
        );
        std::thread::yield_now();
    }
    let malformed = Request::Add {
        workflow_json: "{not a workflow".to_owned(),
    };
    let mut last = Duration::ZERO;
    for client in &mut writers {
        let started = Instant::now();
        match client.request(&malformed) {
            Err(ClientError::Rejected(ServeError::BadRequest { .. })) => {}
            other => panic!("expected typed BadRequest, got {other:?}"),
        }
        last = started.elapsed();
    }
    assert!(
        !slow.is_finished(),
        "the slow search must still be running for the test to mean anything"
    );
    assert!(
        last < Duration::from_millis(200),
        "the third request waited {last:?} behind a 400ms search while a worker idled \
         (seed {FAULT_SEED:#x})"
    );
    let outcome = slow
        .join()
        .expect("search thread")
        .expect("slow search answers");
    assert!(!outcome.degraded, "a stall without a deadline only delays");
    server.shutdown();
}

/// A panic inside a search costs neither its reply nor its worker: with
/// ~15% of shard visits panicking (under every shard read lock), every
/// request is answered — a typed `Internal` error or exact hits — and
/// searches keep succeeding after far more panics than the server has
/// workers.
#[test]
fn injected_panics_get_internal_replies_and_workers_survive() {
    let workflows = generate_taverna_corpus(&TavernaCorpusConfig::small(32, 21)).0;
    let ids: Vec<String> = workflows.iter().map(|w| w.id.0.clone()).collect();
    let service = Arc::new(CorpusService::new(ShardedCorpus::build(
        SimilarityConfig::best_module_sets(),
        4,
        workflows,
    )));
    let plan = FaultPlan::new(FAULT_SEED).panic_shards(150);
    let workers = 2;
    let server = Server::start(
        Arc::clone(&service),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
        Some(plan),
    )
    .expect("server starts");
    let mut client = fast_client(server.addr(), 11);
    const SEARCHES: usize = 48;
    let mut panicked = Vec::new();
    let mut served = Vec::new();
    for i in 0..SEARCHES {
        let query = &ids[i % ids.len()];
        match client.search(query, 5, 0) {
            Ok(outcome) => {
                assert!(!outcome.degraded, "{query}");
                let exact: Vec<(String, u64)> = service
                    .search(&WorkflowId::new(query.clone()), 5)
                    .expect("resident")
                    .iter()
                    .map(|h| (h.id.0.clone(), h.score.to_bits()))
                    .collect();
                let got: Vec<(String, u64)> = outcome
                    .hits
                    .iter()
                    .map(|h| (h.id.clone(), h.score.to_bits()))
                    .collect();
                assert_eq!(got, exact, "{query}");
                served.push(i);
            }
            Err(ClientError::Rejected(ServeError::Internal { detail })) => {
                assert!(detail.contains("injected panic"), "{detail}");
                panicked.push(i);
            }
            Err(other) => panic!("seed {FAULT_SEED:#x}: {other}"),
        }
    }
    assert_eq!(panicked.len() + served.len(), SEARCHES);
    assert!(
        panicked.len() > 2 * workers,
        "seed {FAULT_SEED:#x}: only {} panics",
        panicked.len()
    );
    // Had each panic cost a worker, nothing after the workers-th panic
    // would have been answered.
    assert!(
        served.iter().any(|&i| i > panicked[2 * workers]),
        "searches succeed after more panics than workers"
    );
    // The control plane still answers, and the server's own books show
    // one reply per request.
    assert_eq!(client.len().expect("len"), ids.len() as u64);
    let stats = server.metrics();
    assert_eq!(stats.responses_error, panicked.len() as u64);
    assert_eq!(stats.shed, 0);
    server.shutdown();
}

/// Degradation path 3: with ~30% of replies severed mid-frame, a retrying
/// client recovers every query — request ids account for each in-flight
/// query exactly once, results stay exact, and the injected drops are
/// visible in the server's fault counter.
#[test]
fn client_backoff_recovers_from_injected_connection_drops() {
    let (service, ids) = build_service(36, 4);
    let plan = FaultPlan::new(FAULT_SEED).drop_replies(300);
    let server = Server::start(
        Arc::clone(&service),
        ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        },
        Some(plan),
    )
    .expect("server starts");
    let addr = server.addr();

    let reference: HashMap<String, Vec<(String, u64)>> = ids
        .iter()
        .map(|id| {
            let hits = service
                .search(&WorkflowId::new(id.clone()), 5)
                .expect("resident");
            (
                id.clone(),
                hits.into_iter()
                    .map(|h| (h.id.0, h.score.to_bits()))
                    .collect(),
            )
        })
        .collect();

    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 8;
    let total_retries = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let ids = ids.clone();
            let reference = reference.clone();
            let total_retries = Arc::clone(&total_retries);
            std::thread::spawn(move || {
                let mut client = fast_client(addr, 100 + c as u64);
                for q in 0..QUERIES_PER_CLIENT {
                    let query = &ids[(c * QUERIES_PER_CLIENT + q) % ids.len()];
                    let outcome = client
                        .search(query, 5, 0)
                        .unwrap_or_else(|e| panic!("query {query} lost to drops: {e}"));
                    // Request ids are per-client sequential: every logical
                    // query is answered exactly once, in order, retries
                    // notwithstanding.
                    assert_eq!(
                        outcome.request_id,
                        (q + 1) as u64,
                        "request id accounting for client {c}"
                    );
                    assert!(!outcome.degraded, "drops must not degrade results");
                    let got: Vec<(String, u64)> = outcome
                        .hits
                        .iter()
                        .map(|h| (h.id.clone(), h.score.to_bits()))
                        .collect();
                    assert_eq!(
                        &got, &reference[query],
                        "retried query {query} must return the exact reference top-k"
                    );
                }
                total_retries.fetch_add(client.retries(), Ordering::Relaxed);
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    assert!(
        total_retries.load(Ordering::Relaxed) > 0,
        "a 30% drop plan must force at least one retry (seed {FAULT_SEED:#x})"
    );
    let stats = server.metrics();
    assert!(
        stats.faults_injected > 0,
        "the drop faults must actually have fired"
    );
    server.shutdown();
}

/// Slow-loris replies trip the client's read timeout and are retried on a
/// fresh connection until a clean reply lands.
#[test]
fn client_times_out_slow_loris_replies_and_retries() {
    let (service, ids) = build_service(24, 2);
    // Half the replies are written one byte every 10ms — far slower than
    // the client's 150ms read timeout.
    let plan = FaultPlan::new(FAULT_SEED).slow_replies(500, Duration::from_millis(10));
    let server =
        Server::start(service, ServerConfig::default(), Some(plan)).expect("server starts");

    let mut client = Client::new(
        server.addr(),
        ClientConfig {
            request_timeout: Duration::from_millis(150),
            max_retries: 10,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            seed: 9,
        },
    );
    let mut served = 0;
    for id in ids.iter().take(6) {
        let outcome = client.search(id, 3, 0).expect("retry outlasts slow-loris");
        assert!(!outcome.degraded);
        served += 1;
    }
    assert_eq!(served, 6);
    assert!(
        client.retries() > 0,
        "a 50% slow-loris plan must trip at least one timeout"
    );
    server.shutdown();
}

/// Control-plane smoke: PING/STATS/LEN answer inline, ADD ships a workflow
/// as JSON across the wire, REMOVE takes it back out, and malformed
/// requests get typed BadRequest replies without killing the connection.
#[test]
fn control_plane_add_remove_and_typed_errors() {
    let (service, ids) = build_service(20, 2);
    let server =
        Server::start(Arc::clone(&service), ServerConfig::default(), None).expect("server starts");
    let mut client = fast_client(server.addr(), 4);

    client.ping().expect("ping");
    assert_eq!(client.len().expect("len"), 20);

    // A workflow crosses the wire as JSON and becomes searchable.
    let wf = WorkflowBuilder::new("wired-1")
        .title("BLAST over the wire")
        .module("fetch", ModuleType::WsdlService, |m| {
            m.service("ebi.ac.uk", "fetch_fasta", "http://ebi.ac.uk/ws")
        })
        .module("blast", ModuleType::WsdlService, |m| {
            m.service("ebi.ac.uk", "blastp", "http://ebi.ac.uk/blast")
        })
        .link("fetch", "blast")
        .build()
        .expect("valid workflow");
    client.add(&wf).expect("add over the wire");
    assert_eq!(client.len().expect("len"), 21);
    let outcome = client.search("wired-1", 5, 0).expect("new resident serves");
    assert_eq!(outcome.answered, vec![true; 2]);
    assert!(!outcome.degraded);
    // Without a fault plan the server runs the same ungated frontier as an
    // in-process search, bit for bit.
    let served: Vec<(String, u64)> = outcome
        .hits
        .iter()
        .map(|h| (h.id.clone(), h.score.to_bits()))
        .collect();
    let in_process: Vec<(String, u64)> = service
        .search(&WorkflowId::new("wired-1"), 5)
        .expect("resident")
        .iter()
        .map(|h| (h.id.0.clone(), h.score.to_bits()))
        .collect();
    assert_eq!(served, in_process);

    // Searching a missing id is a typed, non-retryable NotFound.
    match client.search("no-such-workflow", 5, 0) {
        Err(ClientError::Rejected(ServeError::NotFound { id })) => {
            assert_eq!(id, "no-such-workflow");
        }
        other => panic!("expected typed NotFound, got {other:?}"),
    }

    // Garbage workflow JSON is a typed BadRequest, and the connection
    // survives to serve the next request.
    match client.request(&Request::Add {
        workflow_json: "{definitely not json".to_owned(),
    }) {
        Err(ClientError::Rejected(ServeError::BadRequest { .. })) => {}
        other => panic!("expected typed BadRequest, got {other:?}"),
    }
    assert!(client.remove("wired-1").expect("remove"));
    assert!(!client.remove("wired-1").expect("second remove is a no-op"));
    assert_eq!(client.len().expect("len"), 20);

    // The metrics snapshot crosses the wire and is coherent.
    let stats = client.stats().expect("stats");
    assert!(stats.requests >= 8);
    assert!(stats.responses_ok >= 6);
    assert!(stats.responses_error >= 2);
    assert!(stats.searches >= 2);
    assert!(stats.search_p50_us <= stats.search_p95_us);
    assert!(stats.search_p95_us <= stats.search_p99_us);
    assert_eq!(stats.shed, 0);

    // The connection still serves after the error traffic above.
    match client.request(&Request::Ping) {
        Ok((_, Response::Pong)) => {}
        other => panic!("expected Pong after error traffic, got {other:?}"),
    }
    server.shutdown();
    assert_eq!(ids.len(), 20);
}

/// Raw wire-level garbage: a well-framed frame with a bogus tag draws a
/// typed BadRequest reply correlated by request id and the connection
/// survives; an impossible declared length draws a typed reply and then a
/// clean close (the frame boundary is unrecoverable).
#[test]
fn wire_garbage_gets_typed_reply_and_connection_survives() {
    use std::io::{Read, Write};
    use wf_serve::{
        decode_response, encode_request, read_frame, FrameError, DEFAULT_MAX_FRAME_LEN,
    };

    let (service, _ids) = build_service(12, 2);
    let server = Server::start(service, ServerConfig::default(), None).expect("server starts");
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    // Well-framed, unknown tag 0x7F, request id 77.
    let mut frame = vec![0u8, 0, 0, 10, 1];
    frame.extend_from_slice(&77u64.to_be_bytes());
    frame.push(0x7F);
    sock.write_all(&frame).expect("send garbage tag");
    let payload = read_frame(&mut sock, DEFAULT_MAX_FRAME_LEN, Duration::from_secs(5))
        .expect("reply arrives")
        .expect("reply not an idle tick");
    match decode_response(&payload) {
        Ok((77, Response::Error(ServeError::BadRequest { detail }))) => {
            assert!(
                detail.contains("unknown message tag"),
                "detail names the defect: {detail}"
            );
        }
        other => panic!("expected typed BadRequest for request 77, got {other:?}"),
    }

    // The same connection still serves a valid request afterwards.
    sock.write_all(&encode_request(78, &Request::Ping))
        .expect("send ping");
    let payload = read_frame(&mut sock, DEFAULT_MAX_FRAME_LEN, Duration::from_secs(5))
        .expect("pong arrives")
        .expect("pong not an idle tick");
    match decode_response(&payload) {
        Ok((78, Response::Pong)) => {}
        other => panic!("expected Pong, got {other:?}"),
    }

    // An impossible declared length: typed reply, then a clean close.
    sock.write_all(&[0xFF, 0xFF, 0xFF, 0xFF])
        .expect("send oversized header");
    let payload = read_frame(&mut sock, DEFAULT_MAX_FRAME_LEN, Duration::from_secs(5))
        .expect("typed reply before close")
        .expect("reply not an idle tick");
    match decode_response(&payload) {
        Ok((0, Response::Error(ServeError::BadRequest { detail }))) => {
            assert!(
                detail.contains("oversized"),
                "detail names the defect: {detail}"
            );
        }
        other => panic!("expected typed BadRequest for oversized frame, got {other:?}"),
    }
    match read_frame(&mut sock, DEFAULT_MAX_FRAME_LEN, Duration::from_secs(5)) {
        Err(FrameError::Closed) => {}
        Ok(None) => panic!("server left the connection open after losing framing"),
        other => panic!("expected a clean close, got {other:?}"),
    }
    let _ = sock.read(&mut [0u8; 1]);
    server.shutdown();
}
