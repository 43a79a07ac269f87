//! Dynamic-Window / Trajectory-Rollout local planner (PathTracking).
//!
//! Exactly the structure the paper accelerates (Fig. 5): sample a
//! window of admissible `(v, w)` pairs around the current velocity,
//! forward-simulate each candidate trajectory, score it on path
//! adherence / goal progress / obstacle clearance / oscillation,
//! discard colliding candidates, and emit the velocity of the best
//! survivor. The scoring loop is the "sequentially performed
//! duplicated scoring work" the paper parallelizes; we distribute the
//! `M` trajectories over `N` threads with the same [`ParallelExecutor`]
//! SLAM uses.
//!
//! **Threads.** The modelled degree `N` prices the node's `Work`; the
//! host threads that score the candidates follow the rule SLAM's
//! executor does. A session gives an offloaded DWA
//! `min(modelled threads, host parallelism)` host threads through
//! [`DwaPlanner::set_threads`] and an on-board one a single thread, so
//! a 1-thread deployment scores inline. Each candidate writes only its
//! own slot and the reduction runs serially over all of them, so the
//! twist, score and `Work` are the same at every thread count.
//!
//! **Footprint probe.** Each activation first builds one
//! `ClearanceWindow` around the robot, sized to the farthest pose any
//! rollout can reach. It holds a copy of the costs there and each
//! cell's Chebyshev clearance, so one lookup per rollout pose answers
//! both "does the footprint collide?" and "what does the pose's cell
//! cost?". The footprint box of radius `r` reaches at most
//! `⌊r / res⌋ + 1` cells from the pose's cell, so a pose whose cell has
//! more clearance than that cannot collide and skips the scan; at the
//! costmap's default inscribed radius `r = 0.11 m` on a 5 cm grid that
//! is clearance above 3. The remaining poses pay for the
//! [`Costmap::footprint_collides`] scan, less the cells within their
//! clearance, which cannot be blocked. The probe only skips work whose
//! answer is already known, so scores, feasibility and the modelled
//! `Work` are unchanged.
//!
//! **Clearance term.** The score's clearance term is the minimum over
//! a rollout's poses of `f(c) = 1 − min(c, 253) / 253` for each pose's
//! cost `c`, clamped to `[0, 1]`. IEEE division by a positive constant
//! and subtraction from a constant are monotone, so `f` never increases
//! with `c`, and the minimum of the `f(cᵢ)` is `f(max cᵢ)`: the same
//! value, bit for bit, since it is one of the values the minimum
//! chooses from. The rollout therefore folds the integer
//! `max(min(c, 253))` and evaluates `f` once per candidate. The fold
//! starts at 0; every feasible candidate runs at least one step, and
//! even with none `f(0) = 1` is what the clamp makes of an empty
//! minimum (`+∞`).
//!
//! A rollout's heading sequence depends only on its angular velocity
//! ω, not on v, and the candidates form an `nv × nw` grid, so every ω
//! is rolled out `nv` times from the same start heading. Each
//! activation therefore builds one [`HeadingTable`] holding, per
//! sampled ω and step, the `sin`/`cos` values [`Pose2D::integrate`]
//! would compute, and the rollouts read them instead of calling the
//! trig themselves. The positions use `integrate`'s exact expressions
//! and operand order, so every pose, score and checksum is
//! bit-identical. The table keeps two trig pairs per arc step: the
//! *end* heading `θₖ + ω·dt` feeds that step's position, while the
//! next step starts from the stored heading
//! `θₖ₊₁ = normalize_angle(θₖ + ω·dt)`. The two differ by 2π after a
//! wrap past ±π, and even without a wrap `normalize_angle` computes
//! `(a + π) − π`, which rounds, so `sin θₖ₊₁` is not in general
//! `sin(θₖ + ω·dt)`. A straight step (|ω| < 1e-9) stores
//! `normalize_angle(θₖ)` as its next heading for the same reason.

use crate::costmap::{ClearanceWindow, Costmap, COST_INSCRIBED};
use lgv_sim::vehicle::{MAX_ANGULAR, MAX_ANG_ACCEL, MAX_LINEAR, MAX_LIN_ACCEL};
use lgv_slam::pool::ParallelExecutor;
use lgv_types::prelude::*;

/// Cycle-cost constants: calibrated so the default navigation
/// configuration draws ≈ 1.39 Gcycles/s (Table II, PathTracking) at
/// the 5 Hz control rate.
pub mod cost {
    /// Cycles per forward-simulation step of one trajectory (pose
    /// integration + footprint cost lookups + partial scores).
    pub const CYCLES_PER_TRAJ_STEP: f64 = 18_000.0;
    /// Serial cycles per activation (window computation, reduction).
    pub const CYCLES_SERIAL_BASE: f64 = 2.0e6;
}

/// Forward-simulation horizon (s).
pub const SIM_HORIZON: f64 = 1.6;
/// Forward-simulation step (s).
pub const SIM_DT: f64 = 0.1;
/// Score weight: distance to the global path.
pub const W_PATH: f64 = 0.8;
/// Score weight: progress towards the goal.
pub const W_GOAL: f64 = 1.2;
/// Score weight: obstacle clearance.
pub const W_CLEAR: f64 = 0.4;
/// Score weight: velocity magnitude (favours making progress).
pub const W_SPEED: f64 = 0.3;
/// Carrot lookahead distance along the global path (m). Progress is
/// scored towards this local target, not the final goal — otherwise
/// trajectories can "hover" beside the path at places where following
/// it momentarily increases the Euclidean goal distance (doorways,
/// switchbacks).
pub const LOOKAHEAD: f64 = 0.9;

/// DWA configuration. The angular-velocity and acceleration bounds are
/// the vehicle's ([`MAX_ANGULAR`], [`MAX_LIN_ACCEL`],
/// [`MAX_ANG_ACCEL`]), and the footprint radius is the costmap's
/// inscribed radius.
#[derive(Debug, Clone)]
pub struct DwaConfig {
    /// Linear velocity bounds (m/s).
    pub max_linear: f64,
    /// Number of sampled trajectories `M` (the paper sweeps
    /// 100–2000 in Fig. 10). Split ≈ 1:3 between linear and angular
    /// sample axes.
    pub samples: u32,
    /// Thread count `N` for parallel scoring.
    pub threads: usize,
}

impl Default for DwaConfig {
    fn default() -> Self {
        DwaConfig {
            max_linear: MAX_LINEAR,
            samples: 400,
            threads: 1,
        }
    }
}

/// One PathTracking activation's output.
#[derive(Debug, Clone)]
pub struct DwaResult {
    /// Best velocity command (STOP when nothing is feasible).
    pub twist: Twist,
    /// Best trajectory score (NaN-free; −∞ when none feasible).
    pub score: f64,
    /// Trajectories simulated.
    pub evaluated: u32,
    /// Trajectories discarded for collision.
    pub discarded: u32,
    /// Cycle demand of this activation.
    pub work: Work,
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    v: f64,
    /// Index of the candidate's ω in the activation's [`HeadingTable`].
    wi: usize,
    score: f64,
    feasible: bool,
    steps: u32,
}

/// The local planner.
#[derive(Debug)]
pub struct DwaPlanner {
    cfg: DwaConfig,
    /// Angular velocity bound (rad/s): [`MAX_ANGULAR`] until the
    /// Controller caps it.
    max_angular: f64,
    executor: ParallelExecutor,
    /// Previous command (dynamic-window centre).
    last: Twist,
}

impl DwaPlanner {
    /// Build with config.
    pub fn new(cfg: DwaConfig) -> Self {
        let executor = ParallelExecutor::new(cfg.threads);
        DwaPlanner {
            cfg,
            max_angular: MAX_ANGULAR,
            executor,
            last: Twist::STOP,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &DwaConfig {
        &self.cfg
    }

    /// Change the host threads that score candidates (the session
    /// does this when the node moves between platforms). Outputs do
    /// not depend on it; see the [module docs](self).
    pub fn set_threads(&mut self, threads: usize) {
        self.executor = ParallelExecutor::new(threads);
    }

    /// Cap the linear velocity (the Controller applies Eq. 2c's
    /// `velocityOA` here).
    pub fn set_max_linear(&mut self, v: f64) {
        self.cfg.max_linear = v.clamp(0.0, MAX_LINEAR.max(v));
    }

    /// Cap the angular velocity. The Controller scales this with the
    /// pipeline reaction time: a command that will be executed
    /// open-loop for the whole VDP makespan must not rotate the robot
    /// past its heading-error budget (the rotational analogue of
    /// Eq. 2c).
    pub fn set_max_angular(&mut self, w: f64) {
        self.max_angular = w.max(0.1);
    }

    /// Set the trajectory-sample budget `M` (clamped to ≥ 12 so the
    /// sample grid keeps both axes). Degraded-mode autonomy lowers
    /// this to keep the local pipeline inside the control deadline;
    /// the config value is read fresh each [`DwaPlanner::compute`], so
    /// the change takes effect on the next activation.
    pub fn set_samples(&mut self, samples: u32) {
        self.cfg.samples = samples.max(12);
    }

    /// Reset the dynamic-window centre (e.g. after a teleport or when
    /// tracking restarts).
    pub fn reset(&mut self) {
        self.last = Twist::STOP;
    }

    /// Compute a velocity command.
    ///
    /// * `pose` — current estimated pose;
    /// * `path` — global plan to follow;
    /// * `goal` — final goal (for progress scoring);
    /// * `cm` — current costmap.
    pub fn compute(
        &mut self,
        cm: &Costmap,
        pose: Pose2D,
        path: &PathMsg,
        goal: Point2,
    ) -> DwaResult {
        self.compute_scored_by(cm, pose, path, goal, score_trajectory)
    }

    /// [`DwaPlanner::compute`] with each candidate scored by `score`.
    fn compute_scored_by(
        &mut self,
        cm: &Costmap,
        pose: Pose2D,
        path: &PathMsg,
        goal: Point2,
        score: impl Fn(&Activation, Candidate) -> Candidate + Sync,
    ) -> DwaResult {
        let cfg = &self.cfg;
        let dt_cycle = 0.2; // command period the window opens over (5 Hz)
        let v_lo = (self.last.linear - MAX_LIN_ACCEL * dt_cycle).max(0.0);
        let v_hi = (self.last.linear + MAX_LIN_ACCEL * dt_cycle).min(cfg.max_linear);
        let w_lo = (self.last.angular - MAX_ANG_ACCEL * dt_cycle).max(-self.max_angular);
        let w_hi = (self.last.angular + MAX_ANG_ACCEL * dt_cycle).min(self.max_angular);

        // Sample grid: keep samples ≈ nv × nw with nw ≈ 3 nv.
        let nv = ((cfg.samples as f64 / 3.0).sqrt().round() as u32).max(2);
        let nw = (cfg.samples / nv).max(2);
        let omegas: Vec<f64> = (0..nw)
            .map(|j| w_lo + (w_hi - w_lo) * j as f64 / (nw - 1) as f64)
            .collect();
        // v-major, as `max_by` below keeps the last of equal maxima.
        let mut candidates: Vec<Candidate> = Vec::with_capacity((nv * nw) as usize);
        for i in 0..nv {
            let v = v_lo + (v_hi - v_lo) * i as f64 / (nv - 1) as f64;
            for wi in 0..nw as usize {
                candidates.push(Candidate {
                    v,
                    wi,
                    score: f64::NEG_INFINITY,
                    feasible: false,
                    steps: 0,
                });
            }
        }

        // Local target: a carrot on the global path ~lookahead ahead
        // of the robot's projection (falls back to the final goal).
        let target = carrot_point(path, pose.position(), LOOKAHEAD, goal);

        // Clearance around every pose a rollout can reach, to skip the
        // footprint scan where it cannot find a collision.
        let steps = (SIM_HORIZON / SIM_DT).round() as u32;
        let radius = cm.config().inscribed_radius;
        let reach = v_lo.abs().max(v_hi.abs()) * steps as f64 * SIM_DT + radius;
        let activation = Activation {
            max_linear: cfg.max_linear,
            cm,
            window: cm.clearance_window(pose.position(), reach, radius),
            headings: HeadingTable::new(pose.theta, &omegas, SIM_DT, steps as usize),
            pose,
            path,
            target,
        };

        // Parallel scoring (paper Fig. 5): the threads claim chunks of
        // candidates.
        self.executor.run_chunks(&mut candidates, |chunk| {
            for c in chunk.iter_mut() {
                *c = score(&activation, *c);
            }
        });

        let evaluated = candidates.len() as u32;
        let discarded = candidates.iter().filter(|c| !c.feasible).count() as u32;
        let total_steps: u64 = candidates.iter().map(|c| c.steps as u64).sum();

        let best = candidates
            .iter()
            .filter(|c| c.feasible)
            .max_by(|a, b| a.score.total_cmp(&b.score));

        let twist = match best {
            Some(c) => Twist::new(c.v, omegas[c.wi]),
            None => {
                // Nothing feasible: rotate in place towards the path.
                Twist::new(0.0, self.max_angular * 0.3)
            }
        };
        self.last = twist;

        let work = Work::with_parallel(
            cost::CYCLES_SERIAL_BASE,
            total_steps as f64 * cost::CYCLES_PER_TRAJ_STEP,
            evaluated,
        );
        DwaResult {
            twist,
            score: best.map_or(f64::NEG_INFINITY, |c| c.score),
            evaluated,
            discarded,
            work,
        }
    }
}

/// What every candidate of one activation is scored against.
struct Activation<'a> {
    /// The linear velocity cap the speed term is scaled by.
    max_linear: f64,
    cm: &'a Costmap,
    /// Footprint checks and costs on `cm`, for its inscribed radius.
    window: ClearanceWindow<'a>,
    headings: HeadingTable,
    pose: Pose2D,
    path: &'a PathMsg,
    /// The carrot the progress term measures towards.
    target: Point2,
}

/// Forward-simulate one candidate along its row of headings and score
/// it. The clearance term is `1 − c / 253` for the largest cost `c`
/// (capped at 253) the rollout passes; see the [module docs](self).
fn score_trajectory(a: &Activation, candidate: Candidate) -> Candidate {
    let v = candidate.v;
    let dims = a.cm.dims();
    let mut end = a.pose.position();
    let mut worst = 0u8;
    let mut executed = 0u32;
    for p in a.headings.rollout(a.pose.position(), v, candidate.wi) {
        executed += 1;
        end = p.position();
        let Some(cost) = a.window.probe(end, dims.world_to_grid(end)) else {
            return Candidate {
                score: f64::NEG_INFINITY,
                feasible: false,
                steps: executed,
                ..candidate
            };
        };
        worst = worst.max(cost.min(COST_INSCRIBED));
    }
    let clearance = 1.0 - worst as f64 / COST_INSCRIBED as f64;

    let path_dist = nearest_path_distance(a.path, end);
    let goal_dist = end.distance(a.target);
    let start_goal_dist = a.pose.position().distance(a.target);
    let progress = start_goal_dist - goal_dist;

    let score = -W_PATH * path_dist
        + W_GOAL * progress
        + W_CLEAR * clearance.clamp(0.0, 1.0)
        + W_SPEED * (v / a.max_linear.max(1e-9));
    Candidate {
        score,
        feasible: true,
        steps: executed,
        ..candidate
    }
}

/// Heading trig of one rollout step: what [`Pose2D::integrate`]
/// evaluates from the step's start heading.
#[derive(Debug, Clone, Copy)]
struct HeadingStep {
    /// `sin`/`cos` of the stored heading θₖ the step starts from.
    sin_from: f64,
    cos_from: f64,
    /// `sin`/`cos` of the end heading `θₖ + ω·dt` before wrapping
    /// (arc steps only).
    sin_to: f64,
    cos_to: f64,
    /// The stored heading θₖ₊₁ after the step.
    theta: f64,
}

/// The heading sequences of the rollouts of one DWA activation: for
/// each sampled angular velocity ω and each step, the trig values that
/// [`Pose2D::integrate`] computes, so that the `nv` rollouts sharing an
/// ω share them too. See the [module docs](self) for why this is
/// exact.
#[derive(Debug, Clone)]
pub struct HeadingTable {
    omegas: Vec<f64>,
    dt: f64,
    steps: usize,
    /// `omegas.len()` rows of `steps` entries.
    rows: Vec<HeadingStep>,
}

impl HeadingTable {
    /// Headings of `steps` steps of `dt` seconds from heading `theta0`,
    /// for each angular velocity in `omegas`.
    pub fn new(theta0: f64, omegas: &[f64], dt: f64, steps: usize) -> Self {
        let mut rows = Vec::with_capacity(omegas.len() * steps);
        for &w in omegas {
            let mut theta = theta0;
            for _ in 0..steps {
                let (sin_from, cos_from) = theta.sin_cos();
                let step = if w.abs() < 1e-9 {
                    HeadingStep {
                        sin_from,
                        cos_from,
                        sin_to: sin_from,
                        cos_to: cos_from,
                        theta: normalize_angle(theta),
                    }
                } else {
                    let th1 = theta + w * dt;
                    let (sin_to, cos_to) = th1.sin_cos();
                    HeadingStep {
                        sin_from,
                        cos_from,
                        sin_to,
                        cos_to,
                        theta: normalize_angle(th1),
                    }
                };
                theta = step.theta;
                rows.push(step);
            }
        }
        HeadingTable {
            omegas: omegas.to_vec(),
            dt,
            steps,
            rows,
        }
    }

    /// The poses a rollout at linear velocity `v` and angular velocity
    /// `omegas[wi]` reaches after each step, starting at `start` with
    /// the table's start heading: bit for bit the poses of repeated
    /// [`Pose2D::integrate`] calls.
    pub fn rollout(&self, start: Point2, v: f64, wi: usize) -> impl Iterator<Item = Pose2D> + '_ {
        let w = self.omegas[wi];
        let straight = w.abs() < 1e-9;
        // `integrate` computes `v * dt * cos` as `(v * dt) * cos`, and
        // `r` once per step from the same operands.
        let (vdt, r) = (v * self.dt, v / w);
        let (mut x, mut y) = (start.x, start.y);
        self.rows[wi * self.steps..][..self.steps]
            .iter()
            .map(move |h| {
                if straight {
                    x += vdt * h.cos_from;
                    y += vdt * h.sin_from;
                } else {
                    x += r * (h.sin_to - h.sin_from);
                    y -= r * (h.cos_to - h.cos_from);
                }
                Pose2D {
                    x,
                    y,
                    theta: h.theta,
                }
            })
    }
}

/// A "carrot" target: project `p` onto the path, then walk
/// `lookahead` metres further along it. Returns `fallback` when the
/// path is degenerate.
fn carrot_point(path: &PathMsg, p: Point2, lookahead: f64, fallback: Point2) -> Point2 {
    let wps = &path.waypoints;
    if wps.len() < 2 {
        return fallback;
    }
    // Closest segment and the projected point on it.
    let mut best = (0usize, wps[0], f64::INFINITY);
    for i in 0..wps.len() - 1 {
        let (a, b) = (wps[i], wps[i + 1]);
        let ab = b - a;
        let denom = ab.norm_sq();
        let t = if denom < 1e-12 {
            0.0
        } else {
            ((p - a).dot(ab) / denom).clamp(0.0, 1.0)
        };
        let q = a.lerp(b, t);
        let d = p.distance(q);
        if d < best.2 {
            best = (i, q, d);
        }
    }
    // Walk forward along the remaining path.
    let (mut i, mut cur, _) = best;
    let mut remaining = lookahead;
    loop {
        let seg_end = wps[i + 1];
        let d = cur.distance(seg_end);
        if remaining <= d || d < 1e-12 {
            if d < 1e-12 {
                return seg_end;
            }
            return cur.lerp(seg_end, remaining / d);
        }
        remaining -= d;
        cur = seg_end;
        i += 1;
        if i + 1 >= wps.len() {
            return *wps.last().unwrap();
        }
    }
}

/// Distance from a point to the closest waypoint segment of the path.
fn nearest_path_distance(path: &PathMsg, p: Point2) -> f64 {
    if path.waypoints.is_empty() {
        return 0.0;
    }
    if path.waypoints.len() == 1 {
        return p.distance(path.waypoints[0]);
    }
    path.waypoints
        .windows(2)
        .map(|seg| point_segment_distance(p, seg[0], seg[1]))
        .fold(f64::INFINITY, f64::min)
}

fn point_segment_distance(p: Point2, a: Point2, b: Point2) -> f64 {
    let ab = b - a;
    let denom = ab.norm_sq();
    if denom < 1e-12 {
        return p.distance(a);
    }
    let t = ((p - a).dot(ab) / denom).clamp(0.0, 1.0);
    p.distance(a.lerp(b, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmap::CostmapConfig;

    fn open_map(w: u32, h: u32) -> MapMsg {
        MapMsg {
            stamp: SimTime::EPOCH,
            dims: GridDims::new(w, h, 0.05, Point2::ORIGIN),
            cells: vec![MapMsg::FREE; (w * h) as usize],
        }
    }

    fn straight_path(y: f64) -> PathMsg {
        PathMsg {
            stamp: SimTime::EPOCH,
            waypoints: vec![Point2::new(1.0, y), Point2::new(5.0, y)],
        }
    }

    #[test]
    fn drives_towards_goal_in_open_space() {
        let cm = Costmap::from_map(CostmapConfig::default(), &open_map(120, 120));
        let mut dwa = DwaPlanner::new(DwaConfig::default());
        let pose = Pose2D::new(1.0, 2.0, 0.0);
        let r = dwa.compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0));
        assert!(
            r.twist.linear > 0.05,
            "should move forward, got {:?}",
            r.twist
        );
        assert!(
            r.twist.angular.abs() < 1.0,
            "roughly straight, got {:?}",
            r.twist
        );
        assert!(r.score > f64::NEG_INFINITY);
        assert_eq!(r.discarded, 0);
    }

    #[test]
    fn avoids_obstacle_ahead() {
        let mut m = open_map(120, 120);
        // Wall segment directly ahead at x ≈ 1.8, y ∈ [1.5, 2.5].
        for row in 30..=50 {
            m.cells[row * 120 + 36] = MapMsg::OCCUPIED;
        }
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        let mut dwa = DwaPlanner::new(DwaConfig::default());
        // Close enough that full-speed candidates reach the inflated
        // wall within the simulation horizon.
        let pose = Pose2D::new(1.45, 2.0, 0.0);
        let r = dwa.compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0));
        assert!(
            r.discarded > 0,
            "straight-ahead candidates must be discarded"
        );
        // The chosen command curves or slows rather than ramming.
        let end = {
            let mut p = pose;
            for _ in 0..16 {
                p = p.integrate(r.twist, 0.1);
            }
            p.position()
        };
        assert!(
            !cm.footprint_collides(end, 0.11),
            "chosen trajectory endpoint collides: {end:?}"
        );
    }

    #[test]
    fn fully_blocked_returns_recovery_rotation() {
        let mut m = open_map(60, 60);
        // Box the robot in tightly.
        for row in 0..60 {
            for col in 0..60 {
                let x = col as f64 * 0.05;
                let y = row as f64 * 0.05;
                let dx = (x - 1.5f64).abs();
                let dy = (y - 1.5f64).abs();
                if dx.max(dy) > 0.15 && dx.max(dy) < 0.3 {
                    m.cells[row * 60 + col] = MapMsg::OCCUPIED;
                }
            }
        }
        let cm = Costmap::from_map(CostmapConfig::default(), &m);
        let mut dwa = DwaPlanner::new(DwaConfig::default());
        let pose = Pose2D::new(1.5, 1.5, 0.0);
        let r = dwa.compute(&cm, pose, &straight_path(1.5), Point2::new(2.5, 1.5));
        assert_eq!(r.twist.linear, 0.0, "boxed in: no forward motion");
        assert!(r.twist.angular != 0.0, "recovery rotation expected");
    }

    #[test]
    fn respects_velocity_cap() {
        let cm = Costmap::from_map(CostmapConfig::default(), &open_map(120, 120));
        let mut dwa = DwaPlanner::new(DwaConfig::default());
        dwa.set_max_linear(0.05);
        let pose = Pose2D::new(1.0, 2.0, 0.0);
        // Run a few cycles so the window converges upward.
        let mut r = dwa.compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0));
        for _ in 0..5 {
            r = dwa.compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0));
        }
        assert!(
            r.twist.linear <= 0.05 + 1e-9,
            "cap violated: {}",
            r.twist.linear
        );
    }

    #[test]
    fn window_limits_acceleration() {
        let cm = Costmap::from_map(CostmapConfig::default(), &open_map(120, 120));
        let mut dwa = DwaPlanner::new(DwaConfig::default());
        let pose = Pose2D::new(1.0, 2.0, 0.0);
        let r = dwa.compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0));
        // From rest, one 0.2 s window at 2.5 m/s² allows ≤ 0.5 m/s
        // (and the hard cap is 0.22).
        assert!(r.twist.linear <= 0.22 + 1e-9);
    }

    #[test]
    fn work_scales_with_samples() {
        let cm = Costmap::from_map(CostmapConfig::default(), &open_map(120, 120));
        let pose = Pose2D::new(1.0, 2.0, 0.0);
        let mut small = DwaPlanner::new(DwaConfig {
            samples: 100,
            ..Default::default()
        });
        let mut large = DwaPlanner::new(DwaConfig {
            samples: 2000,
            ..Default::default()
        });
        let ws = small
            .compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0))
            .work;
        let wl = large
            .compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0))
            .work;
        let ratio = wl.parallel_cycles / ws.parallel_cycles;
        assert!(ratio > 10.0, "work should scale ≈ 20×, got {ratio}");
        assert!(wl.parallel_items >= 1500);
    }

    #[test]
    fn set_samples_shrinks_work_on_the_next_activation() {
        let cm = Costmap::from_map(CostmapConfig::default(), &open_map(120, 120));
        let pose = Pose2D::new(1.0, 2.0, 0.0);
        let mut dwa = DwaPlanner::new(DwaConfig::default());
        let full = dwa
            .compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0))
            .work;
        dwa.set_samples(60);
        let degraded = dwa
            .compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0))
            .work;
        assert!(degraded.parallel_items < full.parallel_items / 3);
        // Restore to the configured default.
        dwa.set_samples(400);
        let restored = dwa
            .compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0))
            .work;
        assert_eq!(restored.parallel_items, full.parallel_items);
        // Floor keeps both sample axes alive.
        dwa.set_samples(1);
        assert_eq!(dwa.config().samples, 12);
    }

    #[test]
    fn parallel_equals_serial() {
        let cm = Costmap::from_map(CostmapConfig::default(), &open_map(120, 120));
        let pose = Pose2D::new(1.0, 2.0, 0.3);
        let run = |threads: usize| {
            let mut dwa = DwaPlanner::new(DwaConfig::default());
            dwa.set_threads(threads);
            let r = dwa.compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.5));
            (r.twist, r.score.to_bits(), r.work.total_cycles().to_bits())
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn table2_pathtracking_cycle_anchor() {
        // Default config at 5 Hz should land near 1.39 Gcycles/s
        // (Table II, PathTracking with a map): ≈ 0.28 G per activation.
        let cm = Costmap::from_map(CostmapConfig::default(), &open_map(240, 200));
        let mut dwa = DwaPlanner::new(DwaConfig {
            samples: 1000,
            ..Default::default()
        });
        let pose = Pose2D::new(1.0, 2.0, 0.0);
        let r = dwa.compute(&cm, pose, &straight_path(2.0), Point2::new(5.0, 2.0));
        let g = r.work.total_cycles() / 1e9;
        assert!((0.15..0.45).contains(&g), "per-activation Gcycles {g}");
    }

    /// The per-candidate scorer `score_trajectory` replaced: a full
    /// footprint scan and a second cost lookup at every pose, and a
    /// floating-point minimum of the clearance term.
    fn reference_score(a: &Activation, candidate: Candidate) -> Candidate {
        let v = candidate.v;
        let dims = a.cm.dims();
        let radius = a.cm.config().inscribed_radius;
        let mut end = a.pose.position();
        let mut min_clearance = f64::INFINITY;
        let mut executed = 0u32;
        for p in a.headings.rollout(a.pose.position(), v, candidate.wi) {
            executed += 1;
            end = p.position();
            let cell = dims.world_to_grid(end);
            if a.cm.footprint_collides(end, radius) {
                return Candidate {
                    score: f64::NEG_INFINITY,
                    feasible: false,
                    steps: executed,
                    ..candidate
                };
            }
            let c = a.cm.cost(cell);
            min_clearance = min_clearance.min(1.0 - c.min(253) as f64 / 253.0);
        }
        let path_dist = nearest_path_distance(a.path, end);
        let progress = a.pose.position().distance(a.target) - end.distance(a.target);
        let score = -W_PATH * path_dist
            + W_GOAL * progress
            + W_CLEAR * min_clearance.clamp(0.0, 1.0)
            + W_SPEED * (v / a.max_linear.max(1e-9));
        Candidate {
            score,
            feasible: true,
            steps: executed,
            ..candidate
        }
    }

    /// A 60 × 50 map with random clutter, unknown patches and a wall
    /// through it, so rollouts meet collisions and every cost band.
    fn cluttered_map(rng: &mut SimRng) -> MapMsg {
        let (w, h) = (60usize, 50usize);
        let mut m = open_map(w as u32, h as u32);
        let density = rng.uniform_range(0.0, 0.06);
        let wall = rng.index(w);
        for (i, c) in m.cells.iter_mut().enumerate() {
            let (col, row) = (i % w, i / w);
            if rng.chance(density) || (col == wall && row % 17 > 4) {
                *c = MapMsg::OCCUPIED;
            } else if rng.chance(0.03) {
                *c = MapMsg::UNKNOWN;
            }
        }
        m
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        #[test]
        fn probe_scoring_matches_the_reference_scorer(seed in 0u64..1_000_000) {
            let mut rng = SimRng::seed_from_u64(seed);
            let cm = Costmap::from_map(CostmapConfig::default(), &cluttered_map(&mut rng));
            // Poses anywhere on the map and a little beyond its edges.
            let pose = Pose2D::new(
                rng.uniform_range(-0.2, 3.2),
                rng.uniform_range(-0.2, 2.7),
                rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI),
            );
            let point = |rng: &mut SimRng| {
                Point2::new(rng.uniform_range(0.0, 3.0), rng.uniform_range(0.0, 2.5))
            };
            let path = PathMsg {
                stamp: SimTime::EPOCH,
                waypoints: (0..rng.index(4)).map(|_| point(&mut rng)).collect(),
            };
            let goal = point(&mut rng);
            let samples = 12 + rng.index(600) as u32;
            let cap = [0.0, 0.1, MAX_LINEAR, 0.6, 1.2][rng.index(5)];
            let max_angular = rng.uniform_range(0.0, MAX_ANGULAR);
            let last = Twist::new(rng.uniform_range(0.0, 1.2), rng.uniform_range(-2.0, 2.0));
            let run = |threads: usize, score: fn(&Activation, Candidate) -> Candidate| {
                let mut dwa = DwaPlanner::new(DwaConfig {
                    samples,
                    ..Default::default()
                });
                dwa.set_threads(threads);
                dwa.set_max_linear(cap);
                dwa.set_max_angular(max_angular);
                dwa.last = last;
                // Two activations, the second from the first's command.
                [(); 2].map(|_| {
                    let r = dwa.compute_scored_by(&cm, pose, &path, goal, score);
                    (
                        [r.twist.linear, r.twist.angular, r.score].map(f64::to_bits),
                        (r.evaluated, r.discarded),
                        [r.work.serial_cycles, r.work.parallel_cycles].map(f64::to_bits),
                        r.work.parallel_items,
                    )
                })
            };
            let want = run(1, reference_score);
            for threads in [1, 2, 8] {
                proptest::prop_assert_eq!(run(threads, score_trajectory), want, "{} threads", threads);
            }
        }
    }

    #[test]
    fn nearest_path_distance_math() {
        let path = straight_path(2.0);
        assert!((nearest_path_distance(&path, Point2::new(3.0, 2.5)) - 0.5).abs() < 1e-9);
        assert!((nearest_path_distance(&path, Point2::new(0.0, 2.0)) - 1.0).abs() < 1e-9);
        let empty = PathMsg {
            stamp: SimTime::EPOCH,
            waypoints: vec![],
        };
        assert_eq!(nearest_path_distance(&empty, Point2::new(1.0, 1.0)), 0.0);
    }
}
