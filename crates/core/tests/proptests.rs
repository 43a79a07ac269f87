//! Property-based tests for the offloading framework: Algorithm 1/2
//! invariants and Eq. 2c structure under arbitrary inputs.

use lgv_offload::classify::{classify, NodeProfile};
use lgv_offload::model::{max_velocity_oa, Goal, VelocityModel};
use lgv_offload::netctl::{NetControl, NetDecision};
use lgv_offload::profiler::Profiler;
use lgv_offload::strategy::{OffloadStrategy, PinPolicy};
use lgv_types::prelude::*;
use proptest::prelude::*;

fn arbitrary_profiles() -> impl Strategy<Value = Vec<NodeProfile>> {
    proptest::collection::vec(0.0f64..5e9, 7).prop_map(|cycles| {
        NodeKind::ALL
            .iter()
            .zip(cycles)
            .map(|(&kind, c)| NodeProfile {
                kind,
                work: Work::serial(c),
                rate_hz: 5.0,
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn classification_quadrants_always_partition(profiles in arbitrary_profiles()) {
        let c = classify(&profiles);
        let union = c.t1.union(c.t2).union(c.t3).union(c.t4);
        prop_assert_eq!(union.len(), 7, "quadrants must cover all profiled nodes");
        // Pairwise disjoint.
        prop_assert!(c.t1.intersection(c.t2).is_empty());
        prop_assert!(c.t1.intersection(c.t3).is_empty());
        prop_assert!(c.t1.intersection(c.t4).is_empty());
        prop_assert!(c.t2.intersection(c.t3).is_empty());
        prop_assert!(c.t2.intersection(c.t4).is_empty());
        prop_assert!(c.t3.intersection(c.t4).is_empty());
        // Reconstruction identities from Fig. 4.
        prop_assert_eq!(c.t1.union(c.t3), c.ecn);
        prop_assert_eq!(c.t2.union(c.t3), c.vdp);
    }

    #[test]
    fn strategy_never_offloads_non_ecn_nodes(
        profiles in arbitrary_profiles(),
        local_ms in 1u64..2000,
        cloud_ms in 1u64..2000,
        mct in any::<bool>(),
    ) {
        let c = classify(&profiles);
        let goal = if mct { Goal::MissionTime } else { Goal::Energy };
        let plan = OffloadStrategy::new(goal).decide(
            &c,
            Duration::from_millis(local_ms),
            Duration::from_millis(cloud_ms),
        );
        // Fine-grained migration: only ECNs ever leave the vehicle.
        prop_assert!(plan.remote.difference(c.ecn).is_empty());
        // T1 (off-path ECNs) are always offloaded under either goal.
        prop_assert!(c.t1.difference(plan.remote).is_empty());
    }

    #[test]
    fn mct_branch_matches_the_time_comparison(
        profiles in arbitrary_profiles(),
        local_ms in 1u64..2000,
        cloud_ms in 1u64..2000,
    ) {
        let c = classify(&profiles);
        let plan = OffloadStrategy::new(Goal::MissionTime).decide(
            &c,
            Duration::from_millis(local_ms),
            Duration::from_millis(cloud_ms),
        );
        if cloud_ms > local_ms {
            prop_assert!(plan.remote.intersection(c.t3).is_empty(), "T3 must migrate back");
            prop_assert_eq!(plan.expected_vdp, Duration::from_millis(local_ms));
        } else {
            prop_assert!(c.t3.difference(plan.remote).is_empty(), "T3 stays offloaded");
        }
    }

    #[test]
    fn pinned_nodes_never_leave(
        profiles in arbitrary_profiles(),
        local_ms in 1u64..2000,
        cloud_ms in 1u64..2000,
        pin_bits in 0u8..128,
    ) {
        let pinned = NodeSet::from_iter(
            NodeKind::ALL.iter().enumerate().filter(|(i, _)| pin_bits & (1 << i) != 0).map(|(_, &k)| k),
        );
        let c = classify(&profiles);
        let strategy = OffloadStrategy {
            goal: Goal::Energy,
            velocity: VelocityModel::default(),
            pins: PinPolicy { pinned_local: pinned },
        };
        let plan = strategy.decide(&c, Duration::from_millis(local_ms), Duration::from_millis(cloud_ms));
        prop_assert!(plan.remote.intersection(pinned).is_empty());
    }

    #[test]
    fn eq2c_velocity_is_monotone_and_bounded(
        tp1 in 0.0f64..5.0, tp2 in 0.0f64..5.0, a in 0.5f64..10.0, d in 0.01f64..1.0,
    ) {
        let (lo, hi) = if tp1 < tp2 { (tp1, tp2) } else { (tp2, tp1) };
        let v_fast = max_velocity_oa(lo, a, d);
        let v_slow = max_velocity_oa(hi, a, d);
        prop_assert!(v_fast >= v_slow, "faster pipeline must allow faster driving");
        // Bounded by the zero-latency kinematic limit.
        prop_assert!(v_fast <= (2.0 * a * d).sqrt() + 1e-12);
        prop_assert!(v_slow > 0.0);
    }

    #[test]
    fn profiler_vdp_makespan_is_additive(
        cg_ms in 1u64..500, pt_ms in 1u64..500, mux_ms in 0u64..5, rtt_ms in 0u64..200,
    ) {
        let mut p = Profiler::new();
        p.record_local(NodeKind::CostmapGen, Duration::from_millis(cg_ms));
        p.record_local(NodeKind::PathTracking, Duration::from_millis(pt_ms));
        p.record_local(NodeKind::VelocityMux, Duration::from_millis(mux_ms));
        p.record_remote(NodeKind::CostmapGen, Duration::from_millis(cg_ms / 10));
        p.record_remote(NodeKind::PathTracking, Duration::from_millis(pt_ms / 10));
        p.record_rtt(Duration::from_millis(rtt_ms));
        let local = p.local_vdp_time();
        prop_assert_eq!(local, Duration::from_millis(cg_ms + pt_ms + mux_ms));
        let remote_set = NodeSet::from_iter([NodeKind::CostmapGen, NodeKind::PathTracking]);
        let cloud = p.cloud_vdp_time(remote_set);
        prop_assert_eq!(
            cloud,
            Duration::from_millis(cg_ms / 10 + pt_ms / 10 + mux_ms + rtt_ms)
        );
    }

    #[test]
    fn netctl_never_switches_to_the_current_placement(
        bw in 0.0f64..10.0, dir in -1.0f64..1.0, remote in any::<bool>(), at_s in 3u64..100,
    ) {
        let mut c = NetControl::new();
        // Pin warm-up start.
        let _ = c.decide(SimTime::EPOCH, 5.0, 0.0, remote);
        let d = c.decide(SimTime::EPOCH + Duration::from_secs(at_s), bw, dir, remote);
        match d {
            NetDecision::InvokeLocal => prop_assert!(remote),
            NetDecision::InvokeRemote => prop_assert!(!remote),
            NetDecision::Keep => {}
        }
    }

    #[test]
    fn netctl_respects_dwell_under_any_inputs(
        seq in proptest::collection::vec((0.0f64..10.0, -1.0f64..1.0), 1..60),
    ) {
        let mut c = NetControl::new();
        let mut remote = true;
        let mut last_switch: Option<u64> = None;
        for (k, &(bw, dir)) in seq.iter().enumerate() {
            let now_ms = 200 * k as u64;
            let d = c.decide(SimTime::EPOCH + Duration::from_millis(now_ms), bw, dir, remote);
            if d != NetDecision::Keep {
                if let Some(prev) = last_switch {
                    prop_assert!(
                        now_ms - prev >= 1500,
                        "switches {prev} and {now_ms} violate the dwell"
                    );
                }
                last_switch = Some(now_ms);
                remote = d == NetDecision::InvokeRemote;
            }
        }
    }
}
