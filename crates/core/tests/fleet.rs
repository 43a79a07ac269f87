//! Fleet determinism guarantees (the multi-tenancy refactor's safety
//! net): a fleet of one is byte-identical to the single-vehicle
//! runner, and fleet runs are exactly reproducible from their seed.

use lgv_offload::deploy::Deployment;
use lgv_offload::fleet::{run_fleet, CloudPolicy, ElasticConfig, FleetConfig, RegionTopology};
use lgv_offload::mission::{self, MissionConfig, Workload};

/// Every byte the fleet driver controls, flattened for equality
/// checks: per-vehicle fingerprints plus the Debug rendering of the
/// aggregate and per-region stats.
fn fleet_digest(report: &lgv_offload::fleet::FleetReport) -> String {
    let mut s = String::new();
    for v in &report.vehicles {
        s.push_str(&format!("{:016x}\n", v.fingerprint()));
    }
    s.push_str(&format!(
        "cloud={:?}\nuplink={:?}\nregions={:?}\nrounds={}\n",
        report.cloud, report.uplink, report.regions, report.rounds
    ));
    s
}

fn base() -> MissionConfig {
    MissionConfig::compact_lab(Deployment::edge_8t(), Workload::Navigation)
}

#[test]
fn fleet_of_one_is_byte_identical_to_single_vehicle() {
    let solo = mission::run(base());
    let fleet = run_fleet(FleetConfig::new(base(), 1));
    assert_eq!(fleet.vehicles.len(), 1);
    // Same fingerprint = same Debug rendering = every field, every
    // trace sample byte-identical. The fleet's contention hooks must
    // be exact no-ops for a lone tenant.
    assert_eq!(
        fleet.vehicles[0].fingerprint(),
        solo.fingerprint(),
        "size-1 fleet diverged from mission::run: {} vs {}",
        fleet.vehicles[0].reason,
        solo.reason
    );
    // The lone tenant must never have been charged for contention.
    let cloud = fleet.cloud.expect("offloaded fleet tracks the cloud");
    assert_eq!(cloud.delayed, 0);
    let uplink = fleet.uplink.expect("offloaded fleet tracks the WAP");
    assert_eq!(uplink.contended_sends, 0);
}

#[test]
fn fleet_runs_are_seed_stable() {
    let a = run_fleet(FleetConfig::new(base(), 2));
    let b = run_fleet(FleetConfig::new(base(), 2));
    assert_eq!(a.rounds, b.rounds);
    for (va, vb) in a.vehicles.iter().zip(&b.vehicles) {
        assert_eq!(va.fingerprint(), vb.fingerprint());
    }
    let (ca, cb) = (a.cloud.unwrap(), b.cloud.unwrap());
    assert_eq!(ca.admissions, cb.admissions);
    assert_eq!(ca.total_queue_delay, cb.total_queue_delay);
    assert_eq!(a.uplink.unwrap(), b.uplink.unwrap());
}

/// The CI quick gate (scripts/ci.sh stage 6): a fleet of four on one
/// edge box, run twice, must agree on every per-vehicle fingerprint
/// and every shared-resource counter — while actually exercising
/// contention on both shared resources.
#[test]
#[ignore = "slow; run by scripts/ci.sh"]
fn fleet_of_four_is_deterministic_under_contention() {
    let a = run_fleet(FleetConfig::new(base(), 4));
    let b = run_fleet(FleetConfig::new(base(), 4));
    assert_eq!(a.vehicles.len(), 4);
    for (va, vb) in a.vehicles.iter().zip(&b.vehicles) {
        assert_eq!(va.fingerprint(), vb.fingerprint());
    }
    let (ca, cb) = (a.cloud.unwrap(), b.cloud.unwrap());
    assert_eq!(ca.admissions, cb.admissions);
    assert_eq!(ca.delayed, cb.delayed);
    assert_eq!(ca.total_queue_delay, cb.total_queue_delay);
    assert_eq!(a.uplink.unwrap(), b.uplink.unwrap());
    // Four tenants' governor-chosen threads on an 8-thread edge box:
    // the queueing and spectrum models must both actually bite.
    assert!(ca.delayed > 0, "no cloud queueing with four tenants?");
    assert!(
        a.uplink.unwrap().contended_sends > 0,
        "no WAP contention with four uplinks?"
    );
}

/// The elastic identity gate: a fleet of one under an elastic
/// scheduler capped at one replica must be byte-identical to both the
/// fixed-cloud fleet and the single-vehicle runner — the elastic
/// hooks, like the contention hooks, are exact no-ops for a lone
/// tenant.
#[test]
fn elastic_fleet_of_one_is_byte_identical_to_fixed() {
    let solo = mission::run(base());
    let elastic = run_fleet(FleetConfig::new(base(), 1).with_cloud(CloudPolicy::Elastic(
        ElasticConfig::balanced().single_replica(),
    )));
    assert_eq!(
        elastic.vehicles[0].fingerprint(),
        solo.fingerprint(),
        "size-1 elastic fleet diverged from mission::run"
    );
    let cloud = elastic.cloud.expect("offloaded fleet tracks the cloud");
    assert_eq!(cloud.delayed, 0);
    assert_eq!(cloud.batches, 0, "a lone tenant has no one to batch with");
    assert_eq!(cloud.scale_ups + cloud.scale_downs, 0, "one-replica cap");
    assert!(cloud.replica_seconds > 0.0, "the ledger still accrues cost");
}

/// The sharded-determinism gate: a regionally sharded fleet must
/// produce byte-identical reports at any thread count — the pool
/// groups share no mutable state and the round barrier makes
/// intra-round order immaterial.
#[test]
fn sharded_fleet_is_byte_identical_across_thread_counts() {
    let topo = RegionTopology::sharded(3).with_cloud_pools(2);
    let run = |threads: usize| {
        run_fleet(
            FleetConfig::new(base(), 6)
                .with_topology(topo)
                .with_threads(threads),
        )
    };
    let serial = run(1);
    assert_eq!(serial.regions.len(), 3);
    assert!(
        serial.wan_crossings() > 0,
        "region 2 is served by pool 0 and must pay WAN hops"
    );
    let d1 = fleet_digest(&serial);
    assert_eq!(d1, fleet_digest(&run(2)), "threads=2 diverged from serial");
    assert_eq!(d1, fleet_digest(&run(8)), "threads=8 diverged from serial");
}

/// The 1-region identity gate: sharding with a single region (even
/// stepped by several threads) must be byte-identical to the plain
/// unsharded fleet — per-vehicle fingerprints (FNV-1a) and aggregate
/// counters alike.
#[test]
fn one_region_fleet_is_identical_to_unsharded() {
    let unsharded = run_fleet(FleetConfig::new(base(), 3));
    let sharded = run_fleet(
        FleetConfig::new(base(), 3)
            .with_topology(RegionTopology::sharded(1))
            .with_threads(2),
    );
    for (u, s) in unsharded.vehicles.iter().zip(&sharded.vehicles) {
        assert_eq!(u.fingerprint(), s.fingerprint());
    }
    assert_eq!(unsharded.cloud.unwrap(), sharded.cloud.unwrap());
    assert_eq!(unsharded.uplink.unwrap(), sharded.uplink.unwrap());
    assert_eq!(unsharded.rounds, sharded.rounds);
    assert_eq!(sharded.regions.len(), 1);
    assert_eq!(sharded.wan_crossings(), 0);
}

/// Cross-region admissions pay the configured WAN hop: with two
/// regions on one pool, region 1's vehicles cross on every admission
/// and their missions stretch relative to the hop-free topology.
#[test]
fn wan_hop_charges_cross_region_admissions() {
    use lgv_types::prelude::Duration;
    let hop = Duration::from_millis(10);
    let topology = |wan_hop| RegionTopology {
        wan_hop,
        ..RegionTopology::sharded(2).with_cloud_pools(1)
    };
    let crossed = run_fleet(FleetConfig::new(base(), 4).with_topology(topology(hop)));
    let free = run_fleet(FleetConfig::new(base(), 4).with_topology(topology(Duration::ZERO)));
    assert!(crossed.wan_crossings() > 0);
    assert_eq!(free.wan_crossings(), 0);
    // Only region 1 (served by pool 0, homed in region 0) crosses.
    assert_eq!(crossed.regions[0].wan_crossings, 0);
    assert!(crossed.regions[1].wan_crossings > 0);
    assert!(crossed.regions[1].remote_pool);
    let expected = Duration::from_nanos(hop.as_nanos() * crossed.regions[1].wan_crossings);
    assert_eq!(
        crossed.regions[1].wan_extra, expected,
        "surcharge must be exactly crossings × hop"
    );
    // The stretched region's vehicles take at least as long as in the
    // hop-free run (identical seeds, strictly added latency).
    let t_crossed: f64 = crossed.vehicles[2..]
        .iter()
        .map(|v| v.time.total().as_secs_f64())
        .sum();
    let t_free: f64 = free.vehicles[2..]
        .iter()
        .map(|v| v.time.total().as_secs_f64())
        .sum();
    assert!(
        t_crossed >= t_free,
        "WAN-charged vehicles finished faster ({t_crossed:.3}s) than hop-free ({t_free:.3}s)"
    );
}

/// The sharded CI gate (scripts/ci.sh stage 6): a 12-vehicle fleet
/// over 4 regions and 2 pools, stepped at three thread counts, must
/// agree byte-for-byte — determinism at fleet scale, under genuine
/// multi-region contention and WAN charging.
#[test]
#[ignore = "slow; run by scripts/ci.sh"]
fn sharded_fleet_scale_gate_is_thread_invariant() {
    let topo = RegionTopology::sharded(4).with_cloud_pools(2);
    let run = |threads: usize| {
        run_fleet(
            FleetConfig::new(base(), 12)
                .with_topology(topo)
                .with_threads(threads),
        )
    };
    let serial = run(1);
    assert_eq!(serial.completed(), 12);
    assert!(serial.wan_crossings() > 0);
    let cloud = serial.cloud.unwrap();
    assert!(cloud.delayed > 0, "12 tenants on 2 pools must queue");
    let d1 = fleet_digest(&serial);
    assert_eq!(d1, fleet_digest(&run(2)), "threads=2 diverged");
    assert_eq!(d1, fleet_digest(&run(8)), "threads=8 diverged");
}

/// The elastic CI gate (scripts/ci.sh stage 6): an elastic fleet of
/// four is exactly reproducible, actually batches same-stage work,
/// and its mean queueing delay does not exceed the fixed scheduler's.
#[test]
#[ignore = "slow; run by scripts/ci.sh"]
fn elastic_fleet_is_deterministic_and_cheaper_than_fixed() {
    let policy = CloudPolicy::Elastic(ElasticConfig::balanced());
    let a = run_fleet(FleetConfig::new(base(), 4).with_cloud(policy));
    let b = run_fleet(FleetConfig::new(base(), 4).with_cloud(policy));
    for (va, vb) in a.vehicles.iter().zip(&b.vehicles) {
        assert_eq!(va.fingerprint(), vb.fingerprint());
    }
    let (ca, cb) = (a.cloud.unwrap(), b.cloud.unwrap());
    assert_eq!(ca, cb, "elastic ledger must be deterministic");
    assert!(ca.batches > 0, "four tenants in lockstep must batch");
    assert!(ca.replica_seconds > 0.0);

    let fixed = run_fleet(FleetConfig::new(base(), 4)).cloud.unwrap();
    assert!(
        ca.mean_queue_delay_secs() <= fixed.mean_queue_delay_secs(),
        "elastic ({:.6}s) must not queue worse than fixed ({:.6}s)",
        ca.mean_queue_delay_secs(),
        fixed.mean_queue_delay_secs()
    );
}
