//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] describes *which* faults to inject — delayed shards,
//! shard visit failures, panics inside a search, replies dropped
//! mid-frame, slow-loris reply writers — and a seed.  The live [`FaultState`] turns the plan into
//! per-event decisions that are a pure function of `(seed, site, sequence
//! number)`: the Nth decision at a given site is identical on every run
//! with the same seed, regardless of thread scheduling at *other* sites.
//! Re-running a failing integration test with its printed seed replays the
//! same fault pattern.
//!
//! Decisions deliberately key on a per-site monotonic sequence, not on
//! request ids: a retried request gets a *fresh* decision, so a plan that
//! drops 30% of replies slows clients down but cannot doom any particular
//! request id forever.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use wf_repo::CancelToken;

/// Fault decision sites — mixed into the hash so shard faults and reply
/// faults draw from independent deterministic streams.
const SITE_SHARD_FAIL: u64 = 0x51;
const SITE_REPLY_DROP: u64 = 0x52;
const SITE_REPLY_SLOW: u64 = 0x53;
const SITE_SHARD_PANIC: u64 = 0x54;

/// What a deterministic fault plan does to the serving stack.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    slow_shards: Vec<usize>,
    shard_delay: Duration,
    fail_shards_per_mille: u16,
    panic_shards_per_mille: u16,
    drop_replies_per_mille: u16,
    slow_replies_per_mille: u16,
    slow_reply_pace: Duration,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given replay seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Every visit to one of `shards` stalls for `delay` before the scan
    /// (cooperatively — the stall aborts early when the request's deadline
    /// fires, so a delayed shard degrades the result instead of blowing
    /// the SLO).
    pub fn delay_shards(mut self, shards: &[usize], delay: Duration) -> Self {
        self.slow_shards = shards.to_vec();
        self.shard_delay = delay;
        self
    }

    /// Vetoes roughly `per_mille`/1000 shard visits (the shard reports as
    /// unanswered and the search result degrades).
    pub fn fail_shards(mut self, per_mille: u16) -> Self {
        self.fail_shards_per_mille = per_mille.min(1000);
        self
    }

    /// Panics in roughly `per_mille`/1000 shard visits, inside the search
    /// (with every shard read lock held) — the failure a bug in the
    /// search path would cause.  The server answers the request with a
    /// typed `Internal` error and its worker lives on.
    pub fn panic_shards(mut self, per_mille: u16) -> Self {
        self.panic_shards_per_mille = per_mille.min(1000);
        self
    }

    /// Drops roughly `per_mille`/1000 replies mid-frame: a few header
    /// bytes are written, then the connection is severed — the client sees
    /// a truncated frame or a reset, both retryable.
    pub fn drop_replies(mut self, per_mille: u16) -> Self {
        self.drop_replies_per_mille = per_mille.min(1000);
        self
    }

    /// Writes roughly `per_mille`/1000 replies one byte at a time with
    /// `pace` between bytes — a slow-loris server exercising client read
    /// timeouts.
    pub fn slow_replies(mut self, per_mille: u16, pace: Duration) -> Self {
        self.slow_replies_per_mille = per_mille.min(1000);
        self.slow_reply_pace = pace;
        self
    }

    pub fn has_faults(&self) -> bool {
        !self.slow_shards.is_empty()
            || self.fail_shards_per_mille > 0
            || self.panic_shards_per_mille > 0
            || self.drop_replies_per_mille > 0
            || self.slow_replies_per_mille > 0
    }
}

/// What to do to one shard visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// Visit the shard normally.
    Pass,
    /// Stall (cooperatively) before scanning the shard.
    Delay(Duration),
    /// Veto the visit: the shard goes unanswered and the result degrades.
    Fail,
    /// Panic inside the search.
    Panic,
}

/// What to do to one reply write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyFault {
    /// Write the reply normally.
    Pass,
    /// Write a few bytes of the frame, then sever the connection.
    Drop,
    /// Write the frame one byte at a time with this pace between bytes.
    SlowLoris(Duration),
}

/// The live decision engine for a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    shard_seq: AtomicU64,
    reply_seq: AtomicU64,
}

/// 64-bit FNV-1a over the decision coordinates — stable, dependency-free,
/// and well-mixed enough for per-mille draws.
fn fnv_mix(seed: u64, site: u64, seq: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [seed, site, seq] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            shard_seq: AtomicU64::new(0),
            reply_seq: AtomicU64::new(0),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn draw(&self, site: u64, seq: u64, per_mille: u16) -> bool {
        per_mille > 0 && fnv_mix(self.plan.seed, site, seq) % 1000 < u64::from(per_mille)
    }

    /// The decision for the next visit to `shard`.  Delays are
    /// deterministic per shard (listed shards always stall); failures and
    /// panics draw from the seeded per-mille streams.
    pub fn shard_fault(&self, shard: usize) -> ShardFault {
        // ordering: Relaxed — the sequence only needs to be unique and
        // monotonic per site; decisions never synchronise other memory.
        let seq = self.shard_seq.fetch_add(1, Ordering::Relaxed);
        if self.plan.slow_shards.contains(&shard) {
            return ShardFault::Delay(self.plan.shard_delay);
        }
        if self.draw(SITE_SHARD_FAIL, seq, self.plan.fail_shards_per_mille) {
            return ShardFault::Fail;
        }
        if self.draw(SITE_SHARD_PANIC, seq, self.plan.panic_shards_per_mille) {
            return ShardFault::Panic;
        }
        ShardFault::Pass
    }

    /// The decision for the next reply write.
    pub fn reply_fault(&self) -> ReplyFault {
        // ordering: Relaxed — see `shard_fault`.
        let seq = self.reply_seq.fetch_add(1, Ordering::Relaxed);
        if self.draw(SITE_REPLY_DROP, seq, self.plan.drop_replies_per_mille) {
            return ReplyFault::Drop;
        }
        if self.draw(SITE_REPLY_SLOW, seq, self.plan.slow_replies_per_mille) {
            return ReplyFault::SlowLoris(self.plan.slow_reply_pace);
        }
        ReplyFault::Pass
    }
}

/// Sleeps for up to `total`, polling `cancel` in small slices and
/// returning early (false) the moment the token fires.  Injected shard
/// delays stall through this so a delayed shard degrades the search
/// instead of holding the worker past the request's deadline.
///
/// When the token carries a deadline, each nap is additionally clamped to
/// the token's time remaining, so the wake-up lands *at* the deadline
/// rather than up to one full slice past it — at a 2 ms slice the
/// overshoot was half the budget of a tight 4 ms SLO.
pub fn cooperative_sleep(cancel: &CancelToken, total: Duration) -> bool {
    cooperative_sleep_sliced(cancel, total, Duration::from_millis(2))
}

fn cooperative_sleep_sliced(cancel: &CancelToken, total: Duration, slice: Duration) -> bool {
    let mut remaining = total;
    while !remaining.is_zero() {
        if cancel.is_cancelled() {
            return false;
        }
        let mut nap = remaining.min(slice);
        if let Some(left) = cancel.remaining() {
            // A zero `left` means the token fired between the check above
            // and here; skip the nap and let the next check latch it.
            nap = nap.min(left);
        }
        std::thread::sleep(nap);
        remaining = remaining.saturating_sub(nap.max(Duration::from_micros(1)));
    }
    !cancel.is_cancelled()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::new(0xFEED)
            .fail_shards(300)
            .drop_replies(250)
            .slow_replies(100, Duration::from_millis(1));
        let a = FaultState::new(plan.clone());
        let b = FaultState::new(plan);
        let shard_a: Vec<_> = (0..200).map(|s| a.shard_fault(s % 8)).collect();
        let shard_b: Vec<_> = (0..200).map(|s| b.shard_fault(s % 8)).collect();
        assert_eq!(shard_a, shard_b);
        let reply_a: Vec<_> = (0..200).map(|_| a.reply_fault()).collect();
        let reply_b: Vec<_> = (0..200).map(|_| b.reply_fault()).collect();
        assert_eq!(reply_a, reply_b);
        // The rates actually bite: some but not all decisions fault.
        assert!(shard_a.contains(&ShardFault::Fail));
        assert!(shard_a.contains(&ShardFault::Pass));
        assert!(reply_a.contains(&ReplyFault::Drop));
        assert!(reply_a.contains(&ReplyFault::Pass));
    }

    #[test]
    fn panic_decisions_are_deterministic_and_bite() {
        let plan = FaultPlan::new(0xFEED).panic_shards(200);
        assert!(plan.has_faults());
        let a = FaultState::new(plan.clone());
        let b = FaultState::new(plan);
        let da: Vec<_> = (0..200).map(|s| a.shard_fault(s % 4)).collect();
        let db: Vec<_> = (0..200).map(|s| b.shard_fault(s % 4)).collect();
        assert_eq!(da, db);
        assert!(da.contains(&ShardFault::Panic));
        assert!(da.contains(&ShardFault::Pass));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultState::new(FaultPlan::new(1).drop_replies(500));
        let b = FaultState::new(FaultPlan::new(2).drop_replies(500));
        let da: Vec<_> = (0..64).map(|_| a.reply_fault()).collect();
        let db: Vec<_> = (0..64).map(|_| b.reply_fault()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn listed_shards_always_delay() {
        let s = FaultState::new(FaultPlan::new(7).delay_shards(&[2], Duration::from_millis(40)));
        for _ in 0..16 {
            assert_eq!(
                s.shard_fault(2),
                ShardFault::Delay(Duration::from_millis(40))
            );
            assert_eq!(s.shard_fault(0), ShardFault::Pass);
        }
    }

    #[test]
    fn cooperative_sleep_aborts_on_cancel() {
        let cancel = CancelToken::after(Duration::from_millis(8));
        let started = std::time::Instant::now();
        let completed = cooperative_sleep(&cancel, Duration::from_millis(500));
        assert!(!completed);
        assert!(started.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn cooperative_sleep_wakes_at_the_deadline_not_a_slice_past_it() {
        // A coarse 80 ms slice against a 10 ms deadline: without the
        // time-remaining clamp the first nap sleeps the full slice and
        // wakes ~70 ms after the deadline fired; with it, the nap is cut
        // to the deadline and the wake-up lands within scheduler noise.
        let cancel = CancelToken::after(Duration::from_millis(10));
        let started = std::time::Instant::now();
        let completed = cooperative_sleep_sliced(
            &cancel,
            Duration::from_millis(500),
            Duration::from_millis(80),
        );
        assert!(!completed);
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_millis(8),
            "woke before the deadline: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(60),
            "overshot the deadline by most of a slice: {elapsed:?}"
        );
    }

    #[test]
    fn cooperative_sleep_completes_without_deadline() {
        let cancel = CancelToken::never();
        assert!(cooperative_sleep(&cancel, Duration::from_millis(4)));
    }

    #[test]
    fn empty_plan_passes_everything() {
        let s = FaultState::new(FaultPlan::new(99));
        assert!(!s.plan().has_faults());
        assert_eq!(s.shard_fault(0), ShardFault::Pass);
        assert_eq!(s.reply_fault(), ReplyFault::Pass);
    }
}
