//! # wf-serve — a fault-tolerant network front end for the corpus service
//!
//! Scaling the paper's repository-scale retrieval (Section 5.2) past one
//! process means putting the sharded [`wf_sim::CorpusService`] behind a
//! wire, and a wire brings failure modes the in-process stack never sees:
//! slow peers, dropped connections, overload, partial progress.  This
//! crate is that front end, built on `std::net` alone:
//!
//! * [`protocol`] — a length-prefixed binary framing with a strict codec:
//!   truncated, oversized, wrong-version and garbage frames decode to
//!   typed [`WireError`]s, never panics or unbounded allocations.
//! * [`server`] — acceptor + per-connection readers + a worker pool
//!   popping one bounded queue.  Admission control sheds (typed [`ServeError::Overloaded`]
//!   with a retry hint) instead of queueing without bound; per-request
//!   deadlines ride the [`wf_repo::CancelToken`] into the scatter-gather
//!   scan and come back as exact *degraded* partial results that record
//!   which shards answered.  Without a fault plan a search runs
//!   [`wf_sim::CorpusService::search_deadline`] — the same global
//!   best-bound-first frontier as an in-process
//!   [`wf_sim::ShardedCorpus::search`] — so a deadline that cuts it
//!   returns exact partial hits with every shard unanswered.  Only a
//!   server started with a [`FaultPlan`] gates each shard
//!   ([`wf_sim::CorpusService::search_deadline_with`]) and scans them one
//!   unit per shard, so work finished before an injected stall survives.
//! * [`client`] — a retrying client with jittered exponential backoff
//!   that distinguishes retryable (overload, reset, timeout) from
//!   non-retryable (bad request) failures and reuses request ids across
//!   retries so every in-flight query is accounted for exactly once.
//! * [`fault`] — a deterministic fault-injection plan (delayed shards,
//!   replies dropped mid-frame, slow-loris writers, vetoed shard visits)
//!   replayable from a single seed.
//! * [`metrics`] — lock-free counters and fixed-bucket latency histograms
//!   (p50/p95/p99) exposed over the wire via the STATS request.

#![deny(unsafe_code)]

pub mod client;
pub mod fault;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientConfig, ClientError, SearchOutcome};
pub use fault::{FaultPlan, FaultState, ReplyFault, ShardFault};
pub use metrics::{
    Counter, HistogramSnapshot, LatencyHistogram, ServeMetrics, StatsSnapshot, HISTOGRAM_BUCKETS,
};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, FrameError, Hit,
    Request, Response, ServeError, WireError, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle};
