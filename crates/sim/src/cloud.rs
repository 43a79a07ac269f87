//! Cloud-side admission control for multi-tenant offloading.
//!
//! The paper's cloud server runs one robot's VDP and has all 48
//! hardware threads to itself. A fleet changes that: every vehicle's
//! offloaded pipeline lands on the *same* box, and the governor-chosen
//! thread counts of all tenants compete for the same cores.
//!
//! [`CloudScheduler`] models the resulting queueing delay
//! deterministically:
//!
//! * Virtual time is divided into fixed windows (one control period by
//!   default). Each admission records the tenant's requested thread
//!   count in the current window.
//! * An admission in window `w` requesting `exec` seconds of compute
//!   is stretched by `exec × (other tenants' threads in window w−1) /
//!   capacity` — the classic processor-sharing slowdown, fed by the
//!   *previous* window so the penalty is independent of intra-round
//!   ordering (the fleet driver runs vehicles in lockstep rounds, so
//!   window `w−1` is final before anyone executes in `w`).
//! * A tenant alone on the box — a fleet of one, or a session that
//!   never attached a scheduler — pays **exactly zero**, preserving
//!   byte-identity with single-vehicle runs.
//!
//! # Elastic mode
//!
//! [`CloudScheduler::new`] builds the paper's *fixed* box: one
//! replica, every admission charged independently. An **elastic**
//! scheduler ([`CloudScheduler::elastic`], configured by
//! [`ElasticConfig`]) adds the two levers that make cloud robotics
//! practical at fleet scale (FogROS-style adaptive provisioning):
//!
//! * **Batched admission.** Same-stage requests from *different*
//!   tenants inside one contention window coalesce into a single
//!   batched execution: the first request pays full price, each
//!   co-tenant's same-stage contribution is charged at the configured
//!   per-item marginal cost instead of a full independent execution
//!   (one SLAM batch instead of N independent SLAM charges). The
//!   *charge* still reads the final window-`w−1` census so order
//!   independence holds; batch *formation* (who joined which batch,
//!   reported via [`Admission::batch`]) is tracked in the current
//!   window, where lockstep makes co-tenant admissions concurrent.
//! * **Replica autoscaling.** A replica pool grows and shrinks at
//!   window boundaries on hysteresis thresholds over the previous
//!   window's utilization (`requested threads / (hw_threads ×
//!   replicas)`): above `scale_up_util` a replica is provisioned (it
//!   serves only after `spinup` elapses), below `scale_down_util` one
//!   is retired — the gap between the thresholds prevents flapping.
//!   Capacity in the delay model is `hw_threads × replicas ready at
//!   admission time`.
//!
//! Every decision derives from previous-window censuses and window
//! boundaries on the virtual clock, so elastic runs are exactly as
//! deterministic as fixed ones, and a lone tenant still pays exactly
//! zero — a fleet of one under an elastic scheduler is byte-identical
//! to the fixed box.
//!
//! The cost side of the trade-off is a deterministic ledger in
//! [`CloudStats`]: replica-seconds provisioned, admissions served,
//! batches formed and their occupancy, scale events.
//!
//! The returned queueing delay is experienced by the vehicle as longer
//! remote processing time, so it flows into the profiler's RTT and
//! remote-time estimates and from there into Algorithm 1's placement
//! decisions: a saturated cloud genuinely looks slower and pushes
//! stages back onto the robot or the edge.
//!
//! The handle is `Clone`; clones share state, so one scheduler is
//! created per fleet and every vehicle session attaches to it.
//!
//! # Fault injection
//!
//! [`CloudScheduler::set_faults`] attaches a deterministic
//! [`CloudFaultSchedule`] (`lgv-net`'s fault `Schedule` over
//! cloud-tier kinds; a [`FaultClock`] reports each window's opening
//! once, through [`Admission::faults`]):
//!
//! * **Replica crashes** remove serving capacity while the window is
//!   open — admissions land on the surviving replicas and pay the
//!   correspondingly larger processor-sharing delay — but the dead
//!   replicas keep accruing replica-seconds, ledgered separately as
//!   [`CloudStats::wasted_replica_seconds`].
//! * **Stragglers** stretch every overlapping admission end to end:
//!   `delay → delay × factor + exec × (factor − 1)`, i.e. the whole
//!   remote execution runs `factor×` slow, not just the queueing part.
//! * **Failed scale-ups** let the autoscaler decide to grow the pool
//!   and pay the spin-up, but the replica never provisions
//!   ([`CloudStats::failed_scale_ups`]).
//!
//! An empty schedule (the default) leaves every arithmetic path
//! byte-identical to a scheduler with no faults attached.

use lgv_net::fault::{CloudFaultKind, CloudFaultSchedule, FaultClock, FaultEdge};
use lgv_types::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Elastic-provisioning policy for a [`CloudScheduler`].
///
/// The defaults ([`ElasticConfig::balanced`]) scale between one and
/// four replicas with a 0.75 / 0.30 hysteresis band, two contention
/// windows of spin-up lag, and a 15 % marginal cost per batched item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticConfig {
    /// Coalesce same-stage requests from different tenants within a
    /// window into one batched execution.
    pub batching: bool,
    /// Fraction of a full execution each batched co-tenant item costs
    /// (0 = free riders, 1 = batching off in effect).
    pub marginal_cost: f64,
    /// Lower bound of the replica pool (clamped to ≥ 1).
    pub min_replicas: u32,
    /// Upper bound of the replica pool.
    pub max_replicas: u32,
    /// Scale up when previous-window utilization exceeds this.
    pub scale_up_util: f64,
    /// Scale down when previous-window utilization falls below this.
    /// Must sit below `scale_up_util`; the gap is the hysteresis band.
    pub scale_down_util: f64,
    /// Lag between provisioning a replica and it serving capacity.
    pub spinup: Duration,
}

impl ElasticConfig {
    /// The default elastic policy: 1–4 replicas, scale up above 75 %
    /// utilization, down below 30 %, 400 ms spin-up, batching on at
    /// 15 % marginal cost.
    pub fn balanced() -> Self {
        ElasticConfig {
            batching: true,
            marginal_cost: 0.15,
            min_replicas: 1,
            max_replicas: 4,
            scale_up_util: 0.75,
            scale_down_util: 0.30,
            spinup: Duration::from_millis(400),
        }
    }

    /// Batching disabled, autoscaling unchanged — the ablation arm of
    /// the elasticity axis.
    pub fn without_batching(mut self) -> Self {
        self.batching = false;
        self
    }

    /// Cap the pool at exactly one replica (used by the fleet-of-one
    /// identity gate: with one replica and a lone tenant the elastic
    /// scheduler is bit-for-bit the fixed one).
    pub fn single_replica(mut self) -> Self {
        self.min_replicas = 1;
        self.max_replicas = 1;
        self
    }

    /// The degenerate policy [`CloudScheduler::new`] uses: one
    /// replica, no batching — exactly the paper's fixed box.
    fn fixed() -> Self {
        ElasticConfig {
            batching: false,
            marginal_cost: 1.0,
            min_replicas: 1,
            max_replicas: 1,
            scale_up_util: f64::INFINITY,
            scale_down_util: 0.0,
            spinup: Duration::ZERO,
        }
    }
}

/// One admission's outcome: the queueing delay plus the elastic
/// signals the session forwards to the tracer (`cloud_batch` /
/// `cloud_scale` events).
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// Queueing delay the shared box adds on top of nominal execution.
    pub delay: Duration,
    /// Set when this admission joined (or formed) a same-stage batch
    /// in the current window.
    pub batch: Option<BatchJoin>,
    /// Replica-pool transitions decided at window boundaries crossed
    /// since the previous admission (usually empty or one entry).
    pub scales: Vec<ScaleEvent>,
    /// Cloud-fault windows first observed open by this admission
    /// (each window is reported exactly once, by whichever tenant's
    /// admission crosses into it first — deterministic under the
    /// fleet's lockstep round order).
    pub faults: Vec<FaultEdge<CloudFaultKind>>,
}

/// This admission coalesced into a same-stage batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchJoin {
    /// The coalesced stage.
    pub stage: NodeKind,
    /// Distinct tenants sharing the batch after this join (≥ 2).
    pub occupancy: u64,
    /// Contention-window index the batch formed in.
    pub window: u64,
    /// Marginal compute this join added (`exec × marginal_cost`)
    /// instead of a full independent execution.
    pub marginal: Duration,
}

/// The replica pool scaled at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Provisioned replicas before the decision.
    pub from: u32,
    /// Provisioned replicas after (spin-up lag still applies before
    /// an added replica serves).
    pub to: u32,
    /// The previous-window utilization that triggered it.
    pub utilization: f64,
    /// Window index the new pool size takes effect in.
    pub window: u64,
}

/// Aggregate counters for one shared cloud box, including the elastic
/// cost ledger (a fixed scheduler reports one replica and no batch or
/// scale activity).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CloudStats {
    /// Total admissions processed.
    pub admissions: u64,
    /// Admissions that paid a non-zero queueing delay.
    pub delayed: u64,
    /// Total queueing delay imposed across all tenants.
    pub total_queue_delay: Duration,
    /// Most requested threads observed in any single window, summed
    /// across tenants (may exceed `hw_threads` under saturation).
    pub peak_window_threads: u64,
    /// Mean utilization of the box over the busy interval:
    /// thread-seconds executed / (hardware threads × elapsed time).
    pub utilization: f64,
    /// Replicas provisioned at the end of the run.
    pub replicas: u32,
    /// Largest pool size ever provisioned.
    pub peak_replicas: u32,
    /// Replica-seconds provisioned: Σ over completed contention
    /// windows of (pool size × window length) — the cost side of the
    /// cost-vs-latency trade-off.
    pub replica_seconds: f64,
    /// Scale-up decisions taken.
    pub scale_ups: u64,
    /// Scale-down decisions taken.
    pub scale_downs: u64,
    /// Same-stage batches formed (a batch exists once two distinct
    /// tenants admit the same stage in one window).
    pub batches: u64,
    /// Admissions that executed inside a batch (both the batch head
    /// and every marginal-cost join).
    pub batched_admissions: u64,
    /// Replica-crash fault windows observed open.
    pub replica_crash_windows: u64,
    /// Admissions stretched by an open straggler window.
    pub straggled_admissions: u64,
    /// Total extra delay imposed by straggler windows, over and above
    /// the fault-free processor-sharing delay.
    pub straggler_extra_delay: Duration,
    /// Scale-up decisions whose replica never provisioned because a
    /// failed-scale-up fault window covered the boundary.
    pub failed_scale_ups: u64,
    /// Replica-seconds paid for capacity that served nothing: dead
    /// replicas inside crash windows plus the spin-up of every failed
    /// scale-up.
    pub wasted_replica_seconds: f64,
}

impl CloudStats {
    /// Mean queueing delay per admission, seconds.
    pub fn mean_queue_delay_secs(&self) -> f64 {
        if self.admissions == 0 {
            0.0
        } else {
            self.total_queue_delay.as_secs_f64() / self.admissions as f64
        }
    }

    /// Mean tenants per batch (0 when no batch ever formed).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_admissions as f64 / self.batches as f64
        }
    }

    /// Fold several pools' ledgers into one fleet-wide view: counter
    /// and duration fields sum, `peak_*` fields take the max, pool
    /// sizes (`replicas`) sum, and `utilization` becomes the
    /// admissions-weighted mean. A one-element slice returns that
    /// element verbatim (no float arithmetic), so a single-pool fleet
    /// report is bit-identical to the pool's own stats.
    pub fn merged(pools: &[CloudStats]) -> CloudStats {
        if pools.len() == 1 {
            return pools[0];
        }
        let mut total = CloudStats::default();
        let mut util_weight = 0u64;
        for p in pools {
            total.admissions += p.admissions;
            total.delayed += p.delayed;
            total.total_queue_delay += p.total_queue_delay;
            total.peak_window_threads = total.peak_window_threads.max(p.peak_window_threads);
            total.replicas += p.replicas;
            total.peak_replicas = total.peak_replicas.max(p.peak_replicas);
            total.replica_seconds += p.replica_seconds;
            total.scale_ups += p.scale_ups;
            total.scale_downs += p.scale_downs;
            total.batches += p.batches;
            total.batched_admissions += p.batched_admissions;
            total.replica_crash_windows += p.replica_crash_windows;
            total.straggled_admissions += p.straggled_admissions;
            total.straggler_extra_delay += p.straggler_extra_delay;
            total.failed_scale_ups += p.failed_scale_ups;
            total.wasted_replica_seconds += p.wasted_replica_seconds;
            total.utilization += p.utilization * p.admissions as f64;
            util_weight += p.admissions;
        }
        if util_weight > 0 {
            total.utilization /= util_weight as f64;
        }
        total
    }
}

#[derive(Debug)]
struct SchedulerInner {
    window: Duration,
    hw_threads: u32,
    cfg: ElasticConfig,
    /// Requested threads per (stage, tenant) per window index: the one
    /// census. A tenant's threads in a window are the sum of its
    /// entries; utilization, the per-window peak, the foreign census
    /// and the same-stage census batching charges against all read
    /// it, and it is the batch-formation record. Old windows are
    /// pruned; only `w−1` and `w` are ever consulted.
    stage_req: BTreeMap<u64, BTreeMap<(NodeKind, u64), u64>>,
    /// Ready time of every provisioned replica, non-decreasing: the
    /// initial `min_replicas` are ready at the epoch, a scale-up
    /// appends `boundary + spinup`, a scale-down pops the newest.
    replicas: Vec<SimTime>,
    /// Next window boundary the autoscaler has yet to evaluate
    /// (`None` until the first admission anchors it).
    eval_window: Option<u64>,
    admissions: u64,
    delayed: u64,
    total_queue_delay: Duration,
    peak_window_threads: u64,
    /// Thread-seconds of admitted compute, for utilization.
    thread_secs: f64,
    first_admit: Option<SimTime>,
    last_admit: SimTime,
    // Cost ledger.
    replica_secs: f64,
    peak_replicas: u32,
    scale_ups: u64,
    scale_downs: u64,
    batches: u64,
    batched_admissions: u64,
    // Fault injection.
    /// Reports each window's opening exactly once, through
    /// [`Admission::faults`].
    faults: FaultClock<CloudFaultKind>,
    replica_crash_windows: u64,
    straggled_admissions: u64,
    straggler_extra_delay: Duration,
    failed_scale_ups: u64,
    wasted_replica_secs: f64,
}

impl SchedulerInner {
    /// Evaluate every window boundary between the last evaluated
    /// window and `w`: accrue replica-seconds and apply the hysteresis
    /// autoscaler to each completed window's utilization. Returns the
    /// scale transitions, oldest first.
    fn advance_to(&mut self, w: u64) -> Vec<ScaleEvent> {
        let mut events = Vec::new();
        let mut ew = match self.eval_window {
            None => {
                self.eval_window = Some(w);
                return events;
            }
            Some(ew) => ew,
        };
        while ew < w {
            let provisioned = self.replicas.len() as u32;
            self.replica_secs += provisioned as f64 * self.window.as_secs_f64();
            // Dead replicas (crash window open at the window's start)
            // are still provisioned and still billed; ledger the
            // serving-nothing fraction as waste.
            let start = SimTime::from_nanos(ew.saturating_mul(self.window.as_nanos()));
            let dead = self.faults.schedule().crashed_at(start).min(provisioned);
            self.wasted_replica_secs += dead as f64 * self.window.as_secs_f64();
            let total: u64 = self.stage_req.get(&ew).map_or(0, |m| m.values().sum());
            let util = total as f64 / (self.hw_threads as u64 * provisioned as u64).max(1) as f64;
            let boundary = SimTime::from_nanos((ew + 1).saturating_mul(self.window.as_nanos()));
            if util > self.cfg.scale_up_util && provisioned < self.cfg.max_replicas {
                if self.faults.schedule().scale_up_fails_at(boundary) {
                    // The autoscaler commits and pays the spin-up, but
                    // the replica never comes: no capacity, no
                    // ScaleEvent, just priced waste.
                    self.failed_scale_ups += 1;
                    self.wasted_replica_secs += self.cfg.spinup.as_secs_f64();
                } else {
                    self.replicas.push(boundary + self.cfg.spinup);
                    self.scale_ups += 1;
                    self.peak_replicas = self.peak_replicas.max(provisioned + 1);
                    events.push(ScaleEvent {
                        from: provisioned,
                        to: provisioned + 1,
                        utilization: util,
                        window: ew + 1,
                    });
                }
            } else if util < self.cfg.scale_down_util && provisioned > self.cfg.min_replicas {
                // Retire the newest replica first (it may still be
                // spinning up, so retiring it costs the least).
                self.replicas.pop();
                self.scale_downs += 1;
                events.push(ScaleEvent {
                    from: provisioned,
                    to: provisioned - 1,
                    utilization: util,
                    window: ew + 1,
                });
            }
            ew += 1;
        }
        self.eval_window = Some(w);
        events
    }

    /// Replicas actually serving at `now` (provisioned minus those
    /// still inside their spin-up lag; never below one).
    fn ready_replicas(&self, now: SimTime) -> u32 {
        (self.replicas.iter().filter(|&&r| r <= now).count() as u32).max(1)
    }

    /// Ready replicas minus those dead in an open crash window, never
    /// below one — the capacity admissions are actually served by.
    /// With an empty schedule this is exactly [`Self::ready_replicas`].
    fn serving_replicas(&self, now: SimTime) -> u32 {
        self.ready_replicas(now)
            .saturating_sub(self.faults.schedule().crashed_at(now))
            .max(1)
    }

    /// Report every schedule window whose opening `now` has reached
    /// and that has not been reported yet (exactly-once per window).
    fn observe_fault_edges(&mut self, now: SimTime) -> Vec<FaultEdge<CloudFaultKind>> {
        if self.faults.schedule().is_empty() {
            return Vec::new();
        }
        let mut edges = self.faults.poll(now);
        edges.retain(|e| e.begin);
        self.replica_crash_windows += edges
            .iter()
            .filter(|e| matches!(e.kind, CloudFaultKind::ReplicaCrash { .. }))
            .count() as u64;
        edges
    }
}

/// One cloud server shared by several vehicle tenants.
///
/// Cheap to clone; clones share the same admission state.
#[derive(Debug, Clone)]
pub struct CloudScheduler {
    inner: Arc<Mutex<SchedulerInner>>,
}

impl CloudScheduler {
    /// A fixed scheduler for a box with `hw_threads` hardware threads
    /// and the given contention window (use the fleet's control
    /// period): one replica, no batching — the paper's cloud.
    pub fn new(hw_threads: u32, window: Duration) -> Self {
        Self::elastic(hw_threads, window, ElasticConfig::fixed())
    }

    /// An elastic scheduler: `cfg` governs same-stage batching and
    /// replica autoscaling on top of the same windowed
    /// processor-sharing model.
    pub fn elastic(hw_threads: u32, window: Duration, cfg: ElasticConfig) -> Self {
        let cfg = ElasticConfig {
            min_replicas: cfg.min_replicas.max(1),
            max_replicas: cfg.max_replicas.max(cfg.min_replicas.max(1)),
            ..cfg
        };
        CloudScheduler {
            inner: Arc::new(Mutex::new(SchedulerInner {
                window: if window == Duration::ZERO {
                    Duration::from_millis(200)
                } else {
                    window
                },
                hw_threads: hw_threads.max(1),
                replicas: vec![SimTime::EPOCH; cfg.min_replicas as usize],
                peak_replicas: cfg.min_replicas,
                cfg,
                stage_req: BTreeMap::new(),
                eval_window: None,
                admissions: 0,
                delayed: 0,
                total_queue_delay: Duration::ZERO,
                peak_window_threads: 0,
                thread_secs: 0.0,
                first_admit: None,
                last_admit: SimTime::EPOCH,
                replica_secs: 0.0,
                scale_ups: 0,
                scale_downs: 0,
                batches: 0,
                batched_admissions: 0,
                faults: FaultClock::new(CloudFaultSchedule::none()),
                replica_crash_windows: 0,
                straggled_admissions: 0,
                straggler_extra_delay: Duration::ZERO,
                failed_scale_ups: 0,
                wasted_replica_secs: 0.0,
            })),
        }
    }

    /// Lock the shared state, recovering from a poisoned mutex: every
    /// mutation the scheduler performs is a plain counter or map
    /// update with no multi-step invariants, so state observed after
    /// a panicking holder is still consistent — injected cloud faults
    /// must never cascade into a simulator abort.
    fn lock(&self) -> MutexGuard<'_, SchedulerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attach a deterministic cloud-tier fault schedule. Replaces any
    /// previously attached schedule and resets the exactly-once
    /// window-edge reporting. An empty schedule restores fault-free
    /// behavior, byte for byte.
    pub fn set_faults(&self, faults: CloudFaultSchedule) {
        let mut inner = self.lock();
        inner.faults = FaultClock::new(faults);
    }

    /// Admit `exec` seconds of `stage` compute on `threads` threads
    /// for `tenant` at `now`.
    ///
    /// The returned [`Admission::delay`] is the queueing delay the
    /// shared box adds on top:
    ///
    /// ```text
    /// exec × (marginal_cost × same-stage + other-stage foreign w−1 threads)
    ///      / (hw_threads × ready replicas)
    /// ```
    ///
    /// (marginal cost applies only with batching on; a fixed scheduler
    /// reduces to `exec × foreign threads / hw_threads`). Zero when
    /// the tenant had the box to itself — always, under any config.
    pub fn admit(
        &self,
        tenant: u64,
        stage: NodeKind,
        now: SimTime,
        threads: u32,
        exec: Duration,
    ) -> Admission {
        let mut inner = self.lock();
        let w = now.as_nanos() / inner.window.as_nanos().max(1);

        // Window boundaries crossed since the last admission: accrue
        // the ledger and run the autoscaler on each completed window.
        let scales = inner.advance_to(w);
        let faults = inner.observe_fault_edges(now);

        // Batch formation in the *current* window: lockstep makes
        // co-tenant admissions within one window concurrent, so the
        // first same-stage admission from a second distinct tenant
        // forms a batch and later tenants join it.
        let stage_slot = inner.stage_req.entry(w).or_default();
        let first_for_tenant = !stage_slot.contains_key(&(stage, tenant));
        *stage_slot.entry((stage, tenant)).or_insert(0) += threads as u64;
        let occupancy = stage_slot.keys().filter(|(s, _)| *s == stage).count() as u64;
        let here: u64 = stage_slot.values().sum();
        inner.peak_window_threads = inner.peak_window_threads.max(here);
        let batch = if inner.cfg.batching && first_for_tenant && occupancy >= 2 {
            if occupancy == 2 {
                inner.batches += 1;
                inner.batched_admissions += 2;
            } else {
                inner.batched_admissions += 1;
            }
            Some(BatchJoin {
                stage,
                occupancy,
                window: w,
                marginal: exec * inner.cfg.marginal_cost,
            })
        } else {
            None
        };

        // Keep only the windows the model can still consult.
        let keep = w.saturating_sub(1);
        inner.stage_req = inner.stage_req.split_off(&keep);

        let prev = w.wrapping_sub(1);
        let (others, same_stage) = inner.stage_req.get(&prev).map_or((0, 0), |m| {
            m.iter()
                .filter(|(&(_, t), _)| t != tenant)
                .fold((0u64, 0u64), |(all, same), (&(s, _), &n)| {
                    (all + n, if s == stage { same + n } else { same })
                })
        });

        inner.admissions += 1;
        inner.thread_secs += exec.as_secs_f64() * threads as f64;
        if inner.first_admit.is_none() {
            inner.first_admit = Some(now);
        }
        inner.last_admit = inner.last_admit.max(now + exec);

        let mut delay = if others == 0 {
            Duration::ZERO
        } else {
            let foreign = if inner.cfg.batching {
                inner.cfg.marginal_cost * same_stage as f64 + (others - same_stage) as f64
            } else {
                others as f64
            };
            // Crashed replicas serve nothing: the survivors absorb the
            // whole census.
            let capacity =
                (inner.hw_threads as u64 * inner.serving_replicas(now) as u64).max(1) as f64;
            exec * (foreign / capacity)
        };
        // A straggler window slows the whole remote execution, not
        // just the queueing part: the nominal exec runs factor× slow
        // and the queueing delay stretches with it.
        let factor = inner.faults.schedule().straggle_factor_at(now);
        if factor > 1.0 {
            let slowed = delay * factor + exec * (factor - 1.0);
            inner.straggled_admissions += 1;
            inner.straggler_extra_delay += slowed.saturating_sub(delay);
            delay = slowed;
        }
        if delay > Duration::ZERO {
            inner.delayed += 1;
            inner.total_queue_delay += delay;
        }
        Admission {
            delay,
            batch,
            scales,
            faults,
        }
    }

    /// Hardware threads of the modelled box (per replica).
    pub fn hw_threads(&self) -> u32 {
        self.lock().hw_threads
    }

    /// The provisioning policy in force.
    pub fn config(&self) -> ElasticConfig {
        self.lock().cfg
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> CloudStats {
        let inner = self.lock();
        let utilization = match inner.first_admit {
            None => 0.0,
            Some(first) => {
                let elapsed = inner.last_admit.saturating_since(first).as_secs_f64();
                if elapsed <= 0.0 {
                    0.0
                } else {
                    inner.thread_secs / (inner.hw_threads as f64 * elapsed)
                }
            }
        };
        CloudStats {
            admissions: inner.admissions,
            delayed: inner.delayed,
            total_queue_delay: inner.total_queue_delay,
            peak_window_threads: inner.peak_window_threads,
            utilization,
            replicas: inner.replicas.len() as u32,
            peak_replicas: inner.peak_replicas,
            replica_seconds: inner.replica_secs,
            scale_ups: inner.scale_ups,
            scale_downs: inner.scale_downs,
            batches: inner.batches,
            batched_admissions: inner.batched_admissions,
            replica_crash_windows: inner.replica_crash_windows,
            straggled_admissions: inner.straggled_admissions,
            straggler_extra_delay: inner.straggler_extra_delay,
            failed_scale_ups: inner.failed_scale_ups,
            wasted_replica_seconds: inner.wasted_replica_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXEC: Duration = Duration::from_millis(40);
    const VDP: NodeKind = NodeKind::CostmapGen;

    fn at(ms: u64) -> SimTime {
        SimTime::EPOCH + Duration::from_millis(ms)
    }

    fn sched() -> CloudScheduler {
        CloudScheduler::new(48, Duration::from_millis(200))
    }

    #[test]
    fn lone_tenant_pays_nothing_ever() {
        let s = sched();
        for i in 0..50 {
            assert_eq!(s.admit(1, VDP, at(i * 200), 12, EXEC).delay, Duration::ZERO);
        }
        let stats = s.stats();
        assert_eq!(stats.delayed, 0);
        assert_eq!(stats.total_queue_delay, Duration::ZERO);
        assert_eq!(stats.admissions, 50);
        assert!(stats.utilization > 0.0);
        assert_eq!(stats.replicas, 1);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn queueing_delay_scales_with_other_tenants_threads() {
        let s = sched();
        // Window 0: tenants 2 and 3 request 12 threads each.
        s.admit(2, VDP, at(0), 12, EXEC);
        s.admit(3, VDP, at(10), 12, EXEC);
        // Window 1: tenant 1 pays for 24 foreign threads on 48 cores.
        let delay = s.admit(1, VDP, at(200), 12, EXEC).delay;
        assert_eq!(delay, EXEC * 0.5);
        // Tenant 2 only pays for tenant 3's 12 threads.
        assert_eq!(s.admit(2, VDP, at(210), 12, EXEC).delay, EXEC * 0.25);
    }

    #[test]
    fn order_within_a_round_does_not_matter() {
        let run = |order: &[u64]| -> Vec<Duration> {
            let s = sched();
            for &t in order {
                s.admit(t, VDP, at(0), 8, EXEC);
            }
            order
                .iter()
                .map(|&t| s.admit(t, VDP, at(200), 8, EXEC).delay)
                .collect()
        };
        let a = run(&[1, 2, 3]);
        let b = run(&[3, 1, 2]);
        assert_eq!(a, vec![EXEC * (16.0 / 48.0); 3]);
        assert_eq!(b, a);
    }

    #[test]
    fn idle_gap_resets_the_penalty() {
        let s = sched();
        s.admit(1, VDP, at(0), 8, EXEC);
        s.admit(2, VDP, at(0), 8, EXEC);
        // Two windows later, window w−1 is empty: no charge.
        assert_eq!(s.admit(1, VDP, at(450), 8, EXEC).delay, Duration::ZERO);
    }

    #[test]
    fn utilization_and_peak_reflect_load() {
        let s = sched();
        for t in 1..=4u64 {
            s.admit(t, VDP, at(0), 12, EXEC);
        }
        let stats = s.stats();
        assert_eq!(stats.peak_window_threads, 48);
        // 4 tenants × 40 ms × 12 threads over a 40 ms busy interval on
        // 48 threads = fully utilized.
        assert!((stats.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clones_share_state() {
        let s = sched();
        let s2 = s.clone();
        s.admit(1, VDP, at(0), 8, EXEC);
        s2.admit(2, VDP, at(0), 8, EXEC);
        assert!(s.admit(1, VDP, at(200), 8, EXEC).delay > Duration::ZERO);
        assert_eq!(s.stats().admissions, 3);
    }

    // ---- elastic mode ----

    fn elastic(cfg: ElasticConfig) -> CloudScheduler {
        CloudScheduler::elastic(48, Duration::from_millis(200), cfg)
    }

    #[test]
    fn same_stage_admissions_coalesce_into_one_batch() {
        let s = elastic(ElasticConfig::balanced().single_replica());
        // Window 0: four tenants admit the same stage. The first pays
        // full price (no batch to join yet); tenants 2..4 join the
        // batch at marginal cost.
        let n = 4u64;
        for t in 1..=n {
            let adm = s.admit(t, NodeKind::Slam, at(0), 12, EXEC);
            match t {
                1 => assert!(adm.batch.is_none(), "batch head pays full price"),
                _ => {
                    let b = adm.batch.expect("co-tenant joins the batch");
                    assert_eq!(b.stage, NodeKind::Slam);
                    assert_eq!(b.occupancy, t);
                    assert_eq!(b.window, 0);
                    assert_eq!(b.marginal, EXEC * 0.15);
                }
            }
        }
        let stats = s.stats();
        // One batched execution, N admissions inside it: the head plus
        // N−1 marginal charges.
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_admissions, n);
        assert!((stats.mean_batch_occupancy() - n as f64).abs() < 1e-12);

        // Window 1: the same-stage foreign census is charged at
        // marginal cost — 3 × 12 × 0.15 threads on 48 cores — instead
        // of the fixed scheduler's 3 × 12.
        let delay = s.admit(1, NodeKind::Slam, at(200), 12, EXEC).delay;
        assert_eq!(delay, EXEC * (0.15 * 36.0 / 48.0));
        let fixed = sched();
        for t in 1..=n {
            fixed.admit(t, NodeKind::Slam, at(0), 12, EXEC);
        }
        let fixed_delay = fixed.admit(1, NodeKind::Slam, at(200), 12, EXEC).delay;
        assert_eq!(fixed_delay, EXEC * (36.0 / 48.0));
        assert!(delay < fixed_delay);
    }

    #[test]
    fn repeat_admissions_by_one_tenant_do_not_batch() {
        let s = elastic(ElasticConfig::balanced().single_replica());
        // Sequential re-admissions by the same tenant are not
        // concurrent work; no batch may form.
        for _ in 0..3 {
            assert!(s.admit(1, NodeKind::Slam, at(0), 12, EXEC).batch.is_none());
        }
        assert_eq!(s.stats().batches, 0);
        // A second tenant's different stage does not batch either.
        assert!(s
            .admit(2, NodeKind::CostmapGen, at(0), 12, EXEC)
            .batch
            .is_none());
        assert_eq!(s.stats().batches, 0);
    }

    #[test]
    fn pool_scales_up_under_load_and_down_when_idle() {
        let cfg = ElasticConfig {
            spinup: Duration::from_millis(200),
            ..ElasticConfig::balanced().without_batching()
        };
        let s = elastic(cfg);
        // Saturate window 0: 8 tenants × 12 threads = 96 on 48 cores.
        for t in 1..=8u64 {
            s.admit(t, VDP, at(0), 12, EXEC);
        }
        // The boundary into window 1 sees util 2.0 > 0.75: scale to 2.
        let adm = s.admit(1, VDP, at(200), 12, EXEC);
        assert_eq!(adm.scales.len(), 1);
        assert_eq!((adm.scales[0].from, adm.scales[0].to), (1, 2));
        assert!(adm.scales[0].utilization > 1.9);
        // The new replica is still spinning up at 200 ms + ε, so this
        // admission is charged against 1×48 capacity...
        assert_eq!(adm.delay, EXEC * (84.0 / 48.0));
        // ...but once the lag passes, capacity doubles.
        for t in 2..=8u64 {
            s.admit(t, VDP, at(210), 12, EXEC);
        }
        let later = s.admit(1, VDP, at(410), 12, EXEC);
        assert_eq!(later.delay, EXEC * (84.0 / 96.0));
        // Long idle stretch: utilization 0 < 0.30 every window, so the
        // pool drains back to min one step per boundary.
        let quiet = s.admit(1, VDP, at(2_000), 12, EXEC);
        assert!(quiet.scales.iter().any(|e| e.to < e.from));
        let stats = s.stats();
        assert_eq!(stats.replicas, cfg.min_replicas);
        assert!(stats.peak_replicas >= 2);
        assert!(stats.scale_downs >= 1);
        assert!(stats.replica_seconds > 0.0);
    }

    #[test]
    fn hysteresis_band_prevents_flapping() {
        // Utilization held mid-band (0.5, between 0.30 and 0.75) for
        // many windows: the pool must never move.
        let s = elastic(ElasticConfig::balanced());
        for w in 0..50u64 {
            let adm1 = s.admit(1, VDP, at(w * 200), 12, EXEC);
            let adm2 = s.admit(2, VDP, at(w * 200 + 10), 12, EXEC);
            assert!(adm1.scales.is_empty() && adm2.scales.is_empty());
        }
        let stats = s.stats();
        assert_eq!(stats.scale_ups, 0);
        assert_eq!(stats.scale_downs, 0);
        assert_eq!(stats.replicas, 1);

        // Just past the up-threshold once: one scale-up, and the
        // resulting mid-band utilization (40/96 ≈ 0.42) must not
        // trigger the down-threshold — no flap back.
        let s = elastic(ElasticConfig::balanced());
        for w in 0..20u64 {
            // 40 of 48 threads ≈ 0.83 at one replica, ≈ 0.42 at two.
            for t in 1..=5u64 {
                s.admit(t, VDP, at(w * 200 + t), 8, EXEC);
            }
        }
        let stats = s.stats();
        assert_eq!(stats.scale_ups, 1, "one decisive scale-up");
        assert_eq!(stats.scale_downs, 0, "no flap at the boundary");
        assert_eq!(stats.replicas, 2);
    }

    #[test]
    fn elastic_single_replica_matches_fixed_byte_for_byte() {
        // The identity gate: batching off + a one-replica cap is the
        // fixed scheduler, bit for bit, for any admission sequence.
        let fixed = sched();
        let elas = elastic(
            ElasticConfig::balanced()
                .without_batching()
                .single_replica(),
        );
        let mut fixed_delays = Vec::new();
        let mut elastic_delays = Vec::new();
        for w in 0..30u64 {
            for t in 1..=(1 + w % 5) {
                let stage = NodeKind::ALL[(t % 7) as usize];
                let threads = 4 + (t as u32 % 9);
                fixed_delays.push(fixed.admit(t, stage, at(w * 200 + t), threads, EXEC).delay);
                elastic_delays.push(elas.admit(t, stage, at(w * 200 + t), threads, EXEC).delay);
            }
        }
        assert_eq!(fixed_delays, elastic_delays);
        let (f, e) = (fixed.stats(), elas.stats());
        assert_eq!(f.admissions, e.admissions);
        assert_eq!(f.delayed, e.delayed);
        assert_eq!(f.total_queue_delay, e.total_queue_delay);
        assert_eq!(e.scale_ups + e.scale_downs, 0);
        assert_eq!(e.batches, 0);
    }

    // ---- cloud-tier fault injection ----

    fn two_replica_pool() -> CloudScheduler {
        // A fixed two-replica pool (hysteresis pinned so it never
        // moves): ready capacity 96 threads from the epoch.
        elastic(ElasticConfig {
            min_replicas: 2,
            max_replicas: 2,
            ..ElasticConfig::balanced().without_batching()
        })
    }

    #[test]
    fn empty_fault_schedule_is_byte_identical_to_none_attached() {
        let bare = sched();
        let faulted = sched();
        faulted.set_faults(CloudFaultSchedule::none());
        for w in 0..20u64 {
            for t in 1..=3u64 {
                let a = bare.admit(t, VDP, at(w * 200 + t), 8, EXEC);
                let b = faulted.admit(t, VDP, at(w * 200 + t), 8, EXEC);
                assert_eq!(a, b);
            }
        }
        assert_eq!(bare.stats(), faulted.stats());
        let s = faulted.stats();
        assert_eq!(s.replica_crash_windows, 0);
        assert_eq!(s.straggled_admissions, 0);
        assert_eq!(s.wasted_replica_seconds, 0.0);
    }

    #[test]
    fn crashed_replica_halves_capacity_and_ledgers_waste() {
        let healthy = two_replica_pool();
        let crashed = two_replica_pool();
        crashed.set_faults(CloudFaultSchedule::none().with(
            0.0,
            1.0,
            CloudFaultKind::ReplicaCrash { replicas: 1 },
        ));
        for s in [&healthy, &crashed] {
            s.admit(2, VDP, at(0), 12, EXEC);
        }
        // Window 1: 12 foreign threads on 96 threads healthy, but on
        // 48 when one of the two replicas is dead.
        assert_eq!(
            healthy.admit(1, VDP, at(200), 12, EXEC).delay,
            EXEC * (12.0 / 96.0)
        );
        let adm = crashed.admit(1, VDP, at(200), 12, EXEC);
        assert_eq!(adm.delay, EXEC * (12.0 / 48.0));
        // The crash window is reported exactly once, by the first
        // admission that observes it open.
        assert!(
            adm.faults.is_empty(),
            "window 0 admission already reported it"
        );
        let stats = crashed.stats();
        assert_eq!(stats.replica_crash_windows, 1);
        // The dead replica was provisioned (and billed) through the
        // completed window: 1 replica × 0.2 s.
        assert!((stats.wasted_replica_seconds - 0.2).abs() < 1e-9);
        // After the window closes, capacity is whole again.
        crashed.admit(2, VDP, at(1_000), 12, EXEC);
        assert_eq!(
            crashed.admit(1, VDP, at(1_200), 12, EXEC).delay,
            EXEC * (12.0 / 96.0)
        );
    }

    #[test]
    fn crash_edges_are_reported_once_with_kind_and_span() {
        let s = two_replica_pool();
        s.set_faults(
            CloudFaultSchedule::none()
                .with(0.5, 2.0, CloudFaultKind::ReplicaCrash { replicas: 1 })
                .with(1.0, 1.0, CloudFaultKind::Straggler { factor: 2.0 }),
        );
        assert!(s.admit(1, VDP, at(0), 8, EXEC).faults.is_empty());
        let adm = s.admit(1, VDP, at(600), 8, EXEC);
        assert_eq!(adm.faults.len(), 1);
        assert_eq!(
            adm.faults[0].kind,
            CloudFaultKind::ReplicaCrash { replicas: 1 }
        );
        assert_eq!(adm.faults[0].window, 0);
        assert_eq!(adm.faults[0].span, Duration::from_secs(2));
        let adm = s.admit(2, VDP, at(1_100), 8, EXEC);
        assert_eq!(adm.faults.len(), 1);
        assert_eq!(
            adm.faults[0].kind,
            CloudFaultKind::Straggler { factor: 2.0 }
        );
        // No window reports twice.
        assert!(s.admit(1, VDP, at(1_200), 8, EXEC).faults.is_empty());
    }

    #[test]
    fn window_closed_between_admissions_is_still_reported_once() {
        let s = two_replica_pool();
        s.set_faults(CloudFaultSchedule::none().with(
            0.3,
            0.2,
            CloudFaultKind::ReplicaCrash { replicas: 1 },
        ));
        assert!(s.admit(1, VDP, at(0), 8, EXEC).faults.is_empty());
        // The window opened at 0.3 s and closed at 0.5 s, unseen; the
        // first admission after it opened reports it anyway.
        let adm = s.admit(2, VDP, at(600), 8, EXEC);
        assert_eq!(adm.faults.len(), 1);
        assert_eq!(
            adm.faults[0].kind,
            CloudFaultKind::ReplicaCrash { replicas: 1 }
        );
        assert_eq!(adm.faults[0].window, 0);
        assert_eq!(adm.faults[0].span, Duration::from_millis(200));
        assert!(s.admit(1, VDP, at(800), 8, EXEC).faults.is_empty());
        assert_eq!(s.stats().replica_crash_windows, 1);
    }

    #[test]
    fn straggler_window_slows_the_whole_execution() {
        let s = sched();
        s.set_faults(CloudFaultSchedule::none().with(
            1.0,
            1.0,
            CloudFaultKind::Straggler { factor: 3.0 },
        ));
        // Outside the window: untouched.
        assert_eq!(s.admit(1, VDP, at(0), 8, EXEC).delay, Duration::ZERO);
        // Inside: even a lone tenant pays exec × (factor − 1) — the
        // remote box itself is slow.
        assert_eq!(s.admit(1, VDP, at(1_000), 8, EXEC).delay, EXEC * 2.0);
        // With contention the queueing delay stretches too:
        // base = EXEC × 8/48, slowed = base × 3 + EXEC × 2.
        s.admit(2, VDP, at(1_200), 8, EXEC);
        let base = EXEC * (8.0 / 48.0);
        assert_eq!(
            s.admit(1, VDP, at(1_400), 8, EXEC).delay,
            base * 3.0 + EXEC * 2.0
        );
        let stats = s.stats();
        // Straggled: the lone admission at 1.0 s plus the two
        // contended ones at 1.2 s and 1.4 s.
        assert_eq!(stats.straggled_admissions, 3);
        let contended = base * 3.0 + EXEC * 2.0;
        assert_eq!(
            stats.straggler_extra_delay,
            EXEC * 2.0 + (contended - base) * 2.0
        );
        // Past the window: back to the fault-free price.
        s.admit(2, VDP, at(2_000), 8, EXEC);
        assert_eq!(s.admit(1, VDP, at(2_200), 8, EXEC).delay, base);
    }

    #[test]
    fn failed_scale_up_leaves_pool_size_but_prices_the_spinup() {
        let cfg = ElasticConfig {
            spinup: Duration::from_millis(200),
            ..ElasticConfig::balanced().without_batching()
        };
        let sabotaged = elastic(cfg);
        sabotaged.set_faults(CloudFaultSchedule::none().with(
            0.0,
            1.0,
            CloudFaultKind::FailedScaleUp,
        ));
        // Saturate window 0 exactly as pool_scales_up_under_load does.
        for t in 1..=8u64 {
            sabotaged.admit(t, VDP, at(0), 12, EXEC);
        }
        let adm = sabotaged.admit(1, VDP, at(200), 12, EXEC);
        assert!(adm.scales.is_empty(), "the scale-up never lands");
        // Deep into what would have been the doubled-capacity era the
        // pool is still one replica wide.
        for t in 2..=8u64 {
            sabotaged.admit(t, VDP, at(210), 12, EXEC);
        }
        assert_eq!(
            sabotaged.admit(1, VDP, at(410), 12, EXEC).delay,
            EXEC * (84.0 / 48.0)
        );
        let stats = sabotaged.stats();
        assert!(stats.failed_scale_ups >= 1);
        assert_eq!(stats.scale_ups, 0);
        assert_eq!(stats.replicas, 1);
        assert!(stats.wasted_replica_seconds >= 0.2 * stats.failed_scale_ups as f64);
    }

    #[test]
    fn lone_tenant_pays_nothing_under_any_elastic_config() {
        for cfg in [
            ElasticConfig::balanced(),
            ElasticConfig::balanced().without_batching(),
            ElasticConfig::balanced().single_replica(),
        ] {
            let s = elastic(cfg);
            for i in 0..50 {
                let adm = s.admit(7, NodeKind::Slam, at(i * 200), 12, EXEC);
                assert_eq!(adm.delay, Duration::ZERO);
                assert!(adm.batch.is_none());
            }
            assert_eq!(s.stats().delayed, 0);
        }
    }
}
