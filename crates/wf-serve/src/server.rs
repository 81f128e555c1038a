//! The serving front end: a TCP server over a shared [`CorpusService`].
//!
//! Thread model:
//!
//! * one **acceptor** thread;
//! * one **reader** thread per connection — decodes frames, answers
//!   control requests (PING/STATS/LEN) inline so health checks stay
//!   responsive under load, and enqueues work requests;
//! * a fixed pool of **worker** threads, all popping one *bounded* queue,
//!   so a queued job goes to whichever worker frees up first and never
//!   waits behind a slow job while another worker idles.
//!
//! Admission control is shed-on-full: when the queue is at capacity the
//! request is answered immediately with a typed
//! [`ServeError::Overloaded`] carrying a retry hint, instead of queueing
//! without bound.  Deadlines are anchored at *arrival*, so time spent
//! queued counts against the budget and an expired job degrades quickly
//! instead of occupying its worker.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wf_model::{Workflow, WorkflowId};
use wf_repo::CancelToken;
use wf_sim::CorpusService;

use crate::fault::{cooperative_sleep, FaultPlan, FaultState, ReplyFault, ShardFault};
use crate::metrics::{ServeMetrics, StatsSnapshot};
use crate::protocol::{
    decode_request, encode_response, peek_request_id, read_frame, FrameError, Hit, Request,
    Response, ServeError, DEFAULT_MAX_FRAME_LEN,
};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads, all popping one bounded queue.
    pub workers: usize,
    /// Queued jobs allowed per worker; the total admission window is
    /// `workers * queue_depth` plus the requests currently executing.
    pub queue_depth: usize,
    /// Deadline applied to searches that do not carry their own
    /// (`deadline_ms == 0`); 0 disables the default.
    pub default_deadline_ms: u32,
    /// The retry hint shed responses carry.
    pub retry_after_ms: u32,
    /// Ceiling on a single frame's payload.
    pub max_frame_len: u32,
    /// Socket read timeout — the shutdown-poll granularity for reader
    /// threads.
    pub read_timeout: Duration,
    /// Once a frame's first byte arrives the rest must land within this
    /// budget (bounds slow-loris senders).
    pub frame_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            default_deadline_ms: 0,
            retry_after_ms: 25,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_timeout: Duration::from_millis(50),
            frame_deadline: Duration::from_secs(5),
        }
    }
}

/// Locks a mutex, recovering the guard if a panicking thread poisoned it —
/// queue and writer state stay structurally valid across panics.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One queued unit of work.
struct Job {
    request_id: u64,
    request: Request,
    arrival: Instant,
    writer: Arc<ConnWriter>,
}

/// The bounded MPMC queue every worker pops.
struct WorkQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    capacity: usize,
}

impl WorkQueue {
    fn new(capacity: usize) -> Self {
        WorkQueue {
            jobs: Mutex::new(VecDeque::with_capacity(capacity)),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking admission: hands the job back when the queue is full.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut q = lock_recover(&self.jobs);
        if q.len() >= self.capacity {
            return Err(job);
        }
        q.push_back(job);
        drop(q);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks up to `timeout` for a job.
    fn pop(&self, timeout: Duration) -> Option<Job> {
        let mut q = lock_recover(&self.jobs);
        if q.is_empty() {
            let (guard, _) = match self.available.wait_timeout(q, timeout) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            q = guard;
        }
        q.pop_front()
    }
}

/// The per-connection reply writer.  A mutex keeps frames atomic when a
/// worker reply and an inline (reader-thread) reply race; reply faults are
/// applied here, at the last moment before bytes hit the socket.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            stream: Mutex::new(stream),
            dead: AtomicBool::new(false),
        }
    }

    fn is_dead(&self) -> bool {
        // ordering: Relaxed — advisory flag; readers re-check via failed
        // socket ops, so no other memory hangs off this load.
        self.dead.load(Ordering::Relaxed)
    }

    fn mark_dead(&self) {
        // ordering: Relaxed — one-way advisory latch, see `is_dead`.
        self.dead.store(true, Ordering::Relaxed);
    }

    /// Writes a complete reply frame, applying any reply fault the plan
    /// draws.  Returns false when the connection is (or becomes) unusable.
    fn write_reply(&self, frame: &[u8], shared: &Shared) -> bool {
        if self.is_dead() {
            return false;
        }
        let fault = match &shared.fault {
            Some(state) => state.reply_fault(),
            None => ReplyFault::Pass,
        };
        let mut stream = lock_recover(&self.stream);
        let ok = match fault {
            ReplyFault::Pass => stream.write_all(frame).is_ok(),
            ReplyFault::Drop => {
                shared.metrics.faults_injected.incr();
                // A taste of the header, then a hard sever: the client
                // sees a truncated frame or a connection reset.
                let cut = frame.len().min(3);
                let _ = stream.write_all(&frame[..cut]);
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                false
            }
            ReplyFault::SlowLoris(pace) => {
                shared.metrics.faults_injected.incr();
                // Byte-at-a-time for the first stretch of the frame —
                // enough to trip a client read timeout — then normal
                // writes so the fault bounds its own duration.
                const PACED_BYTES: usize = 64;
                let paced = frame.len().min(PACED_BYTES);
                let mut ok = true;
                for byte in &frame[..paced] {
                    if stream.write_all(std::slice::from_ref(byte)).is_err() {
                        ok = false;
                        break;
                    }
                    let _ = stream.flush();
                    std::thread::sleep(pace);
                }
                ok && stream.write_all(&frame[paced..]).is_ok()
            }
        };
        if !ok {
            self.mark_dead();
        }
        ok
    }
}

/// State shared by the acceptor, readers and workers.
struct Shared {
    service: Arc<CorpusService>,
    config: ServerConfig,
    fault: Option<FaultState>,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    queue: WorkQueue,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        // ordering: Relaxed — shutdown is a one-way advisory flag polled
        // on timeouts; no data is published through it.
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// The serving front end.  [`Server::start`] binds a loopback listener and
/// returns a handle; the server runs until the handle shuts down (or
/// drops).
pub struct Server;

impl Server {
    /// Starts a server on `127.0.0.1` (ephemeral port) over the given
    /// service, optionally under a deterministic fault plan.
    pub fn start(
        service: Arc<CorpusService>,
        config: ServerConfig,
        fault: Option<FaultPlan>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let shared = Arc::new(Shared {
            service,
            config,
            fault: fault.map(FaultState::new),
            metrics: ServeMetrics::new(),
            shutdown: AtomicBool::new(false),
            queue: WorkQueue::new(workers.saturating_mul(queue_depth)),
        });

        let worker_handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wf-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wf-serve-acceptor".to_owned())
                .spawn(move || acceptor_loop(&listener, &shared))?
        };

        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }
}

/// Handle to a running server; shuts the server down when dropped.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live snapshot of the server's metrics.
    pub fn metrics(&self) -> StatsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Stops accepting, drains the work queue and joins the worker and
    /// acceptor threads.  Reader threads notice the flag within one read
    /// timeout and exit on their own.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // ordering: Relaxed — advisory latch; the dummy connection below
        // and the condvar wakeups are the actual synchronisation edges.
        if !self.shared.shutdown.swap(true, Ordering::Relaxed) {
            self.shared.queue.available.notify_all();
            // Unblock the acceptor's blocking `accept`.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for incoming in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("wf-serve-conn".to_owned())
            .spawn(move || reader_loop(stream, &shared));
        if spawned.is_err() {
            // Thread spawn failed (resource exhaustion): drop the
            // connection rather than the server.
            continue;
        }
    }
}

fn reader_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    shared.metrics.connections.incr();
    if stream
        .set_read_timeout(Some(shared.config.read_timeout))
        .is_err()
    {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(ConnWriter::new(clone)),
        Err(_) => return,
    };
    loop {
        if shared.shutting_down() || writer.is_dead() {
            break;
        }
        match read_frame(
            &mut stream,
            shared.config.max_frame_len,
            shared.config.frame_deadline,
        ) {
            Ok(None) => continue,
            Ok(Some(payload)) => match decode_request(&payload) {
                Ok((request_id, request)) => {
                    shared.metrics.requests.incr();
                    dispatch(request_id, request, &writer, shared);
                }
                Err(wire) => {
                    // The frame boundary was sound, only the body was
                    // garbage — reply typed and keep the connection.
                    shared.metrics.bad_frames.incr();
                    let request_id = peek_request_id(&payload).unwrap_or(0);
                    send_reply(
                        request_id,
                        &Response::Error(ServeError::BadRequest {
                            detail: wire.to_string(),
                        }),
                        &writer,
                        shared,
                    );
                }
            },
            Err(FrameError::Wire(wire)) => {
                // The framing itself is lost (oversized / impossible
                // length): reply typed, then close — we can no longer
                // find the next frame boundary.
                shared.metrics.bad_frames.incr();
                send_reply(
                    0,
                    &Response::Error(ServeError::BadRequest {
                        detail: wire.to_string(),
                    }),
                    &writer,
                    shared,
                );
                break;
            }
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => break,
        }
    }
}

/// Routes one decoded request: control requests answer inline on the
/// reader thread; work requests go through admission control.
fn dispatch(request_id: u64, request: Request, writer: &Arc<ConnWriter>, shared: &Arc<Shared>) {
    match request {
        Request::Ping => send_reply(request_id, &Response::Pong, writer, shared),
        Request::Stats => send_reply(
            request_id,
            &Response::Stats(shared.metrics.snapshot()),
            writer,
            shared,
        ),
        Request::Len => send_reply(
            request_id,
            &Response::Len {
                len: shared.service.len() as u64,
            },
            writer,
            shared,
        ),
        request @ (Request::Search { .. } | Request::Add { .. } | Request::Remove { .. }) => {
            let job = Job {
                request_id,
                request,
                arrival: Instant::now(),
                writer: Arc::clone(writer),
            };
            enqueue_or_shed(job, shared);
        }
    }
}

/// Admission control: queue the job, or shed it with a typed Overloaded
/// reply when the queue is full.
fn enqueue_or_shed(job: Job, shared: &Arc<Shared>) {
    let Err(job) = shared.queue.try_push(job) else {
        return;
    };
    shared.metrics.shed.incr();
    let reply = Response::Error(ServeError::Overloaded {
        retry_after_ms: shared.config.retry_after_ms,
    });
    let writer = Arc::clone(&job.writer);
    send_reply(job.request_id, &reply, &writer, shared);
}

/// Encodes and writes a reply, bumping the ok/error response counters.
fn send_reply(request_id: u64, response: &Response, writer: &Arc<ConnWriter>, shared: &Shared) {
    if matches!(response, Response::Error(_)) {
        shared.metrics.responses_error.incr();
    } else {
        shared.metrics.responses_ok.incr();
    }
    let frame = encode_response(request_id, response);
    writer.write_reply(&frame, shared);
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        match shared.queue.pop(Duration::from_millis(50)) {
            Some(job) => {
                let response = execute_caught(&job, shared);
                send_reply(job.request_id, &response, &job.writer, shared);
            }
            None => {
                if shared.shutting_down() {
                    break;
                }
            }
        }
    }
}

/// [`execute`] behind the job's panic boundary: a panic while the job
/// runs is answered with a typed `Internal` error, and the worker goes on
/// to its next job instead of dying while the queue still admits work.
///
/// Unwinding drops every lock guard the job held.  A search holds only
/// shard *read* locks, which a panic does not poison; a panic under a
/// shard write lock (inside `add` / `remove`) poisons that shard, and
/// later jobs touching it then fail the same typed way.
fn execute_caught(job: &Job, shared: &Shared) -> Response {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(job, shared))).unwrap_or_else(
        |payload| {
            let cause = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown cause".to_string());
            Response::Error(ServeError::Internal {
                detail: format!("request failed: {cause}"),
            })
        },
    )
}

/// Runs one work request against the corpus service.
fn execute(job: &Job, shared: &Shared) -> Response {
    match &job.request {
        Request::Search {
            query,
            k,
            deadline_ms,
        } => {
            let budget_ms = if *deadline_ms > 0 {
                *deadline_ms
            } else {
                shared.config.default_deadline_ms
            };
            // Anchor the deadline at arrival so queueing time counts
            // against the budget: a job that aged out in the queue
            // degrades immediately instead of hogging its worker.
            let cancel = if budget_ms > 0 {
                CancelToken::at(job.arrival + Duration::from_millis(u64::from(budget_ms)))
            } else {
                CancelToken::never()
            };
            let query_id = WorkflowId::new(query.clone());
            let k = *k as usize;
            // Without a fault plan there is no gate, so the search runs the
            // same global frontier as an in-process `ShardedCorpus::search`.
            let outcome = match &shared.fault {
                None => shared.service.search_deadline(&query_id, k, &cancel),
                Some(state) => {
                    let gate = |shard: usize| match state.shard_fault(shard) {
                        ShardFault::Pass => true,
                        ShardFault::Delay(delay) => {
                            shared.metrics.faults_injected.incr();
                            cooperative_sleep(&cancel, delay);
                            true
                        }
                        ShardFault::Fail => {
                            shared.metrics.faults_injected.incr();
                            false
                        }
                        ShardFault::Panic => {
                            shared.metrics.faults_injected.incr();
                            panic!("injected panic visiting shard {shard}");
                        }
                    };
                    shared
                        .service
                        .search_deadline_with(&query_id, k, &cancel, gate)
                }
            };
            shared.metrics.search_latency.record(job.arrival.elapsed());
            match outcome {
                None => Response::Error(ServeError::NotFound { id: query.clone() }),
                Some(result) => {
                    if result.degraded {
                        shared.metrics.degraded.incr();
                    }
                    Response::Hits {
                        degraded: result.degraded,
                        answered: result.answered,
                        hits: result
                            .hits
                            .into_iter()
                            .map(|hit| Hit {
                                id: hit.id.0,
                                score: hit.score,
                            })
                            .collect(),
                    }
                }
            }
        }
        Request::Add { workflow_json } => match serde_json::from_str::<Workflow>(workflow_json) {
            Ok(workflow) => Response::Added {
                shard: shared.service.add(workflow) as u32,
            },
            Err(err) => Response::Error(ServeError::BadRequest {
                detail: format!("workflow json: {err}"),
            }),
        },
        Request::Remove { id } => Response::Removed {
            existed: shared
                .service
                .remove(&WorkflowId::new(id.clone()))
                .is_some(),
        },
        // Control requests never reach the queue; answering Pong keeps the
        // match total without a panic path.
        Request::Ping | Request::Stats | Request::Len => Response::Pong,
    }
}
