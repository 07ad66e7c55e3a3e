//! Deterministic fault injection for the simulated multi-GPU cluster.
//!
//! At 64-GPU scale (the paper's Figure 10 platform) transient kernel
//! failures, straggler GPUs, and outright rank loss are routine, and
//! practical stacks wrap the Fock build in retry and recovery machinery.
//! This module supplies the *fault model* for exercising that machinery
//! without real hardware: a [`FaultPlan`] is a pure function of a seed, so
//! any chaos run can be replayed bit-for-bit, and every injected anomaly is
//! charged to the simulated device clock so degraded runs cost realistic
//! simulated seconds.
//!
//! Four anomaly classes are modeled, mirroring what multi-GPU SCF codes
//! actually see:
//!
//! * **transient kernel failures** — a batched ERI launch fails (ECC error,
//!   sticky kernel timeout) and succeeds on retry; decided per
//!   `(rank, batch, attempt)` so retries are independent events;
//! * **stragglers** — a rank runs every launch `slowdown ≥ 1` times slower
//!   (thermal throttling, a bad NVLink lane);
//! * **permanent rank loss** — a rank dies partway through its share and
//!   never comes back (Xid error, node eviction); the death point is a
//!   fraction of the rank's assigned work so plans stay meaningful for any
//!   share size;
//! * **allreduce timeouts** — a collective hangs and must be retried.
//!
//! The plan only *describes* faults. Recovery — retries with capped
//! exponential backoff, work stealing, re-running a dead rank's batches on
//! survivors — lives in the distributed Fock driver (`mako-scf`), which
//! reports what it did through a [`RecoveryLedger`].

/// SplitMix64: the standard 64-bit finalizer used to derive independent,
/// reproducible decision streams from (seed, tag, indices).
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Hash a decision coordinate into [0, 1).
#[inline]
fn unit(seed: u64, tag: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut h = splitmix64(seed ^ tag.wrapping_mul(0xd1b54a32d192ed03));
    h = splitmix64(h ^ a.wrapping_mul(0x9e3779b97f4a7c15));
    h = splitmix64(h ^ b.wrapping_mul(0xc2b2ae3d27d4eb4f));
    h = splitmix64(h ^ c.wrapping_mul(0x165667b19e3779f9));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const TAG_STRAGGLER: u64 = 1;
const TAG_STRAGGLER_MAG: u64 = 2;
const TAG_LOSS: u64 = 3;
const TAG_LOSS_POINT: u64 = 4;
const TAG_TRANSIENT: u64 = 5;
const TAG_ALLREDUCE: u64 = 6;

/// Simulated seconds one allreduce timeout costs before the retry.
pub const ALLREDUCE_TIMEOUT_SECONDS: f64 = 0.5;

/// Capped exponential backoff charged before retry `attempt` (0-based: the
/// delay after the first failure is 1 ms, doubling up to 0.25 s). The one
/// retry schedule of the stack: failed rank launches and failed server
/// jobs both wait this long.
pub fn backoff_seconds(attempt: u32) -> f64 {
    (1e-3 * (1u64 << attempt.min(52)) as f64).min(0.25)
}

/// Fault rates and magnitudes used to generate a seeded [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability a given `(rank, batch, attempt)` launch fails
    /// transiently. Must stay below 1 or a launch could fail forever.
    pub transient_rate: f64,
    /// Probability a rank is a straggler.
    pub straggler_rate: f64,
    /// Straggler slowdown multiplier range `[lo, hi)`, clamped to ≥ 1.
    pub straggler_slowdown: (f64, f64),
    /// Probability a rank is permanently lost mid-run. The generated plan
    /// always leaves at least one survivor.
    pub loss_rate: f64,
    /// Probability one allreduce attempt times out.
    pub allreduce_timeout_rate: f64,
}

impl Default for FaultConfig {
    /// A quiet cluster: no faults of any kind.
    fn default() -> FaultConfig {
        FaultConfig {
            transient_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: (1.0, 1.0),
            loss_rate: 0.0,
            allreduce_timeout_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// A representative "bad day" at cluster scale: occasional transient
    /// launch failures, a minority of stragglers, rare rank loss, and
    /// occasional collective timeouts.
    pub fn chaotic() -> FaultConfig {
        FaultConfig {
            transient_rate: 0.05,
            straggler_rate: 0.25,
            straggler_slowdown: (2.0, 6.0),
            loss_rate: 0.15,
            allreduce_timeout_rate: 0.1,
        }
    }
}

/// Static per-rank fault assignment of one plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankFaults {
    /// Execution slowdown multiplier, ≥ 1 (1 = healthy).
    pub slowdown: f64,
    /// If `Some(f)`, the rank dies after completing fraction `f ∈ [0, 1)`
    /// of its assigned batches; its partial results are lost.
    pub death_fraction: Option<f64>,
}

impl RankFaults {
    /// A healthy rank.
    pub(crate) fn healthy() -> RankFaults {
        RankFaults {
            slowdown: 1.0,
            death_fraction: None,
        }
    }
}

/// A fully deterministic fault schedule for one distributed build (or one
/// SCF trajectory): pure function of the seed, replayable bit-for-bit.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    ranks: Vec<RankFaults>,
    transient_rate: f64,
    allreduce_timeout_rate: f64,
}

impl FaultPlan {
    /// A plan with no faults at all — the fault-tolerant driver under a
    /// quiet plan must match the fault-free driver exactly.
    pub fn quiet(ranks: usize) -> FaultPlan {
        FaultPlan {
            seed: 0,
            ranks: vec![RankFaults::healthy(); ranks],
            transient_rate: 0.0,
            allreduce_timeout_rate: 0.0,
        }
    }

    /// Draw a plan for `ranks` ranks from `seed` under `cfg`. Guaranteed to
    /// leave at least one rank alive: if every rank draws a death, the
    /// lowest-index rank is revived (deterministically).
    pub fn seeded(seed: u64, ranks: usize, cfg: &FaultConfig) -> FaultPlan {
        assert!(ranks > 0, "a cluster needs at least one rank");
        assert!(
            cfg.transient_rate < 1.0,
            "transient_rate must be < 1 or a launch can fail forever"
        );
        let mut per_rank = Vec::with_capacity(ranks);
        for r in 0..ranks as u64 {
            let slowdown = if unit(seed, TAG_STRAGGLER, r, 0, 0) < cfg.straggler_rate {
                let (lo, hi) = cfg.straggler_slowdown;
                let (lo, hi) = (lo.max(1.0), hi.max(1.0));
                lo + (hi - lo) * unit(seed, TAG_STRAGGLER_MAG, r, 0, 0)
            } else {
                1.0
            };
            let death_fraction = if unit(seed, TAG_LOSS, r, 0, 0) < cfg.loss_rate {
                Some(unit(seed, TAG_LOSS_POINT, r, 0, 0))
            } else {
                None
            };
            per_rank.push(RankFaults {
                slowdown,
                death_fraction,
            });
        }
        if per_rank.iter().all(|f| f.death_fraction.is_some()) {
            per_rank[0].death_fraction = None;
        }
        FaultPlan {
            seed,
            ranks: per_rank,
            transient_rate: cfg.transient_rate.clamp(0.0, 0.999),
            allreduce_timeout_rate: cfg.allreduce_timeout_rate.clamp(0.0, 0.999),
        }
    }

    /// Builder: kill `rank` after completing `fraction ∈ [0, 1)` of its
    /// share (targeted-loss tests; the golden suite pins one of these).
    pub fn kill_rank(mut self, rank: usize, fraction: f64) -> FaultPlan {
        self.ranks[rank].death_fraction = Some(fraction.clamp(0.0, 0.999_999));
        assert!(
            self.ranks.iter().any(|f| f.death_fraction.is_none()),
            "a plan must leave at least one survivor"
        );
        self
    }

    /// Builder: make `rank` a straggler with the given slowdown (≥ 1).
    pub fn slow_rank(mut self, rank: usize, slowdown: f64) -> FaultPlan {
        self.ranks[rank].slowdown = slowdown.max(1.0);
        self
    }

    /// Builder: set the per-attempt transient-failure rate.
    pub fn with_transients(mut self, rate: f64) -> FaultPlan {
        self.transient_rate = rate.clamp(0.0, 0.999);
        self
    }

    /// Number of ranks this plan covers.
    pub fn ranks(&self) -> usize {
        self.ranks.len()
    }

    /// The static fault assignment of one rank.
    pub fn rank(&self, rank: usize) -> RankFaults {
        self.ranks[rank]
    }

    /// Straggler slowdown multiplier of a rank (1 = healthy).
    pub fn slowdown(&self, rank: usize) -> f64 {
        self.ranks[rank].slowdown
    }

    /// Whether any rank in this plan is doomed to die.
    pub fn lossy(&self) -> bool {
        self.ranks.iter().any(|f| f.death_fraction.is_some())
    }

    /// Resolve a rank's death fraction against its actual share size:
    /// `Some(k)` means the rank dies while executing batch `k` (0-based) of
    /// its share and completes only batches `0..k`. A doomed rank with an
    /// empty share still counts as lost (it just has nothing to re-run).
    pub fn death_point(&self, rank: usize, share_len: usize) -> Option<usize> {
        self.ranks[rank].death_fraction.map(|f| {
            if share_len == 0 {
                0
            } else {
                ((f * share_len as f64) as usize).min(share_len - 1)
            }
        })
    }

    /// Whether attempt `attempt` of `batch` on `rank` fails transiently.
    /// Pure function of the plan seed — replay gives the same answer.
    pub(crate) fn transient_fails(&self, rank: usize, batch: usize, attempt: u32) -> bool {
        self.transient_rate > 0.0
            && unit(
                self.seed,
                TAG_TRANSIENT,
                rank as u64,
                batch as u64,
                attempt as u64,
            ) < self.transient_rate
    }

    /// Whether attempt `attempt` of allreduce call `call` times out.
    pub fn allreduce_times_out(&self, call: u64, attempt: u32) -> bool {
        self.allreduce_timeout_rate > 0.0
            && unit(self.seed, TAG_ALLREDUCE, call, attempt as u64, 0)
                < self.allreduce_timeout_rate
    }

    /// Walk one dispatch through this plan on the load-model clock, adding
    /// what recovery did and what it cost into `ledger`. Accounting only:
    /// the work's numerical results never depend on the timeline.
    ///
    /// `shares[r]` is rank `r`'s work in execution order as `(id, cost)`:
    /// `id` is the coordinate of the transient stream, `cost` the modeled
    /// seconds of one healthy execution. Every item is retried in place
    /// with capped exponential backoff until it succeeds. A rank with
    /// `alive[r]` false on entry sits the walk out; a rank that reaches its
    /// death point pays for its prefix, is marked dead in `alive` (callers
    /// that keep `alive` across walks make loss persistent), and has its
    /// whole share re-run. With `straggler_threshold` set, a live rank that
    /// has burned that multiple (≥ 1) of its fault-free share budget with
    /// items still pending loses the pending tail. Displaced items — stolen
    /// tails first, then dead ranks' shares — go one by one to the
    /// least-loaded live rank (`total_cmp`, ties to the lowest rank). The
    /// caller guarantees a survivor.
    pub fn walk(
        &self,
        shares: &[Vec<(usize, f64)>],
        alive: &mut [bool],
        straggler_threshold: Option<f64>,
        ledger: &mut RecoveryLedger,
    ) {
        let budgets: Vec<f64> = shares
            .iter()
            .map(|s| s.iter().map(|&(_, c)| c).sum())
            .collect();
        ledger.fault_free_seconds += budgets.iter().fold(0.0f64, |a, &b| a.max(b));

        // Wasted attempts before one successful execution, charged to the
        // executor's degraded clock. Capped as a safety valve; rates are
        // clamped < 1 so the cap is unreachable in expectation.
        let charge = |executor: usize,
                      (id, cost): (usize, f64),
                      degraded: &mut f64,
                      ledger: &mut RecoveryLedger| {
            let slowdown = self.slowdown(executor);
            let mut attempt = 0u32;
            while attempt < 1000 && self.transient_fails(executor, id, attempt) {
                *degraded += cost * slowdown; // the failed launch
                let pause = backoff_seconds(attempt);
                *degraded += pause;
                ledger.transient_retries += 1;
                ledger.backoff_seconds += pause;
                attempt += 1;
            }
            *degraded += cost * slowdown; // the successful launch
        };

        let mut degraded = vec![0.0f64; shares.len()];
        let mut stolen: Vec<(usize, f64)> = Vec::new(); // straggler tails (owner alive)
        let mut rerun: Vec<(usize, f64)> = Vec::new(); // dead ranks' full shares
        for (r, share) in shares.iter().enumerate() {
            if !alive[r] {
                continue;
            }
            if let Some(die_at) = self.death_point(r, share.len()) {
                // The rank executes (and pays for) its prefix, then
                // vanishes; everything it did is lost with its device
                // memory, so the full share is re-run on survivors.
                for &item in &share[..die_at] {
                    charge(r, item, &mut degraded[r], ledger);
                }
                alive[r] = false;
                ledger.ranks_lost += 1;
                ledger.rerun_batches += share.len();
                rerun.extend_from_slice(share);
                continue;
            }
            let bar = straggler_threshold.map(|t| t.max(1.0) * budgets[r]);
            for (i, &item) in share.iter().enumerate() {
                if bar.is_some_and(|bar| degraded[r] >= bar) && i + 1 < share.len() {
                    ledger.straggler_ranks += 1;
                    ledger.stolen_batches += share.len() - i;
                    stolen.extend_from_slice(&share[i..]);
                    break;
                }
                charge(r, item, &mut degraded[r], ledger);
            }
        }
        // Thieves *evaluate*; results remain attributed to the owner.
        for item in stolen.into_iter().chain(rerun) {
            let (thief, _) = degraded
                .iter()
                .enumerate()
                .filter(|&(r, _)| alive[r])
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("the caller guarantees a survivor");
            charge(thief, item, &mut degraded[thief], ledger);
        }
        ledger.degraded_seconds += degraded
            .iter()
            .enumerate()
            .filter(|&(r, _)| alive[r])
            .map(|(_, &t)| t)
            .fold(0.0f64, f64::max);
    }
}

/// What the recovery machinery actually did during one fault-tolerant
/// build (or one SCF iteration), and what it cost on the simulated clock.
///
/// Surfaced next to [`crate::IterationLedger`] by the SCF driver and
/// serialized into its checkpoints. All counters are additive so
/// per-iteration ledgers roll up into a run total via [`Self::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryLedger {
    /// Transient launch failures retried (each retry re-ran one batch).
    pub transient_retries: usize,
    /// Simulated seconds spent in retry backoff delays.
    pub backoff_seconds: f64,
    /// Ranks flagged as stragglers by the load-model detector.
    pub straggler_ranks: usize,
    /// Batches re-partitioned away from stragglers (work stealing).
    pub stolen_batches: usize,
    /// Batches of dead ranks re-run on survivors.
    pub rerun_batches: usize,
    /// Ranks permanently lost.
    pub ranks_lost: usize,
    /// Allreduce attempts that timed out and were retried.
    pub allreduce_retries: usize,
    /// Checkpoint files written (SCF driver).
    pub checkpoint_saves: usize,
    /// Checkpoint files restored from (SCF driver).
    pub checkpoint_loads: usize,
    /// Load-model makespan of the fault-free execution (max rank load plus
    /// the base collective), simulated seconds.
    pub fault_free_seconds: f64,
    /// Load-model makespan with every fault charged: straggler slowdowns,
    /// wasted attempts, backoff, stolen/re-run work, collective retries.
    pub degraded_seconds: f64,
}

impl RecoveryLedger {
    /// Extra simulated seconds the faults cost over the fault-free plan.
    /// Can be negative in one corner: work stealing may beat the *static*
    /// LPT plan when it offloads a straggler early.
    pub fn overhead_seconds(&self) -> f64 {
        self.degraded_seconds - self.fault_free_seconds
    }

    /// Whether any recovery action fired at all.
    pub fn quiet(&self) -> bool {
        self.transient_retries == 0
            && self.stolen_batches == 0
            && self.rerun_batches == 0
            && self.ranks_lost == 0
            && self.straggler_ranks == 0
            && self.allreduce_retries == 0
            && self.checkpoint_loads == 0
    }

    /// Merge another ledger's counters and clocks (run totals).
    pub fn absorb(&mut self, other: &RecoveryLedger) {
        self.transient_retries += other.transient_retries;
        self.backoff_seconds += other.backoff_seconds;
        self.straggler_ranks += other.straggler_ranks;
        self.stolen_batches += other.stolen_batches;
        self.rerun_batches += other.rerun_batches;
        self.ranks_lost += other.ranks_lost;
        self.allreduce_retries += other.allreduce_retries;
        self.checkpoint_saves += other.checkpoint_saves;
        self.checkpoint_loads += other.checkpoint_loads;
        self.fault_free_seconds += other.fault_free_seconds;
        self.degraded_seconds += other.degraded_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let p = FaultPlan::quiet(8);
        assert_eq!(p.ranks(), 8);
        assert!(!p.lossy());
        for r in 0..8 {
            assert_eq!(p.slowdown(r), 1.0);
            assert_eq!(p.death_point(r, 100), None);
            for b in 0..50 {
                assert!(!p.transient_fails(r, b, 0));
            }
        }
        assert!(!p.allreduce_times_out(0, 0));
    }

    #[test]
    fn seeded_plan_is_replayable() {
        let cfg = FaultConfig::chaotic();
        let a = FaultPlan::seeded(42, 8, &cfg);
        let b = FaultPlan::seeded(42, 8, &cfg);
        for r in 0..8 {
            assert_eq!(a.rank(r), b.rank(r));
            for batch in 0..64 {
                for attempt in 0..4 {
                    assert_eq!(
                        a.transient_fails(r, batch, attempt),
                        b.transient_fails(r, batch, attempt)
                    );
                }
            }
        }
        // Different seeds decorrelate.
        let c = FaultPlan::seeded(43, 8, &cfg);
        let same = (0..8).all(|r| a.rank(r) == c.rank(r));
        assert!(!same, "seeds 42 and 43 produced identical rank faults");
    }

    #[test]
    fn seeded_plan_always_leaves_a_survivor() {
        let cfg = FaultConfig {
            loss_rate: 1.0,
            ..FaultConfig::default()
        };
        for seed in 0..64 {
            let p = FaultPlan::seeded(seed, 4, &cfg);
            let survivors = (0..4).filter(|&r| p.rank(r).death_fraction.is_none()).count();
            assert!(survivors >= 1, "seed {seed} killed every rank");
        }
    }

    #[test]
    fn transient_rate_is_roughly_honored() {
        let p = FaultPlan::seeded(7, 2, &FaultConfig {
            transient_rate: 0.3,
            ..FaultConfig::default()
        });
        let n = 20_000;
        let fails = (0..n).filter(|&b| p.transient_fails(0, b, 0)).count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_seconds(0), 1e-3);
        assert_eq!(backoff_seconds(1), 2e-3);
        assert_eq!(backoff_seconds(2), 4e-3);
        assert_eq!(backoff_seconds(20), 0.25);
        assert_eq!(backoff_seconds(60), 0.25);
    }

    #[test]
    fn death_point_resolves_against_share_size() {
        let p = FaultPlan::quiet(2).kill_rank(1, 0.5);
        assert_eq!(p.death_point(0, 10), None);
        assert_eq!(p.death_point(1, 10), Some(5));
        assert_eq!(p.death_point(1, 1), Some(0));
        assert_eq!(p.death_point(1, 0), Some(0));
        assert!(p.lossy());
    }

    #[test]
    #[should_panic(expected = "survivor")]
    fn killing_every_rank_is_rejected() {
        let _ = FaultPlan::quiet(2).kill_rank(0, 0.1).kill_rank(1, 0.1);
    }

    #[test]
    fn ledger_absorb_sums() {
        let a = RecoveryLedger {
            transient_retries: 2,
            backoff_seconds: 0.25,
            stolen_batches: 3,
            rerun_batches: 5,
            ranks_lost: 1,
            fault_free_seconds: 1.0,
            degraded_seconds: 2.5,
            ..RecoveryLedger::default()
        };
        let mut total = RecoveryLedger::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.transient_retries, 4);
        assert_eq!(total.rerun_batches, 10);
        assert_eq!(total.ranks_lost, 2);
        assert!((total.overhead_seconds() - 3.0).abs() < 1e-12);
        assert!(!total.quiet());
        assert!(RecoveryLedger::default().quiet());
    }
}
