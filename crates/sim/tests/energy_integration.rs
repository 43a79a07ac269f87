//! Integration of the Eq. 1 energy models with the ledger: the
//! component models must compose into the totals Fig. 13 reports.

use lgv_sim::energy::{Component, EnergyLedger};
use lgv_sim::platform::Platform;
use lgv_sim::power::{LgvProfile, TransmitModel};
use lgv_sim::Battery;
use lgv_types::prelude::*;

#[test]
fn stationary_minute_is_exactly_the_hotel_load() {
    // A parked Turtlebot3 with motors idle: sensor + MCU + EC idle +
    // motor transforming loss, integrated over one minute.
    let profile = LgvProfile::turtlebot3();
    let platform = Platform::turtlebot3();
    let ec = profile.compute_model(&platform);
    let motor = profile.motor_model();
    let mut ledger = EnergyLedger::new();
    let dt = Duration::from_millis(100);
    for _ in 0..600 {
        ledger.add_power(Component::Sensor, profile.max_power.sensor, dt);
        ledger.add_power(
            Component::Microcontroller,
            profile.max_power.microcontroller,
            dt,
        );
        ledger.add_power(Component::EmbeddedComputer, ec.idle_w, dt);
        ledger.add_power(Component::Motor, motor.power(0.0, 0.0), dt);
    }
    let expected =
        (profile.max_power.sensor + profile.max_power.microcontroller + ec.idle_w + motor.loss_w)
            * 60.0;
    assert!(
        (ledger.total_joules() - expected).abs() < 1e-6,
        "hotel load: {} vs {expected}",
        ledger.total_joules()
    );
}

#[test]
fn full_compute_minute_matches_table1_maximum() {
    // One minute of flat-out computation on all four cores draws the
    // Table I embedded-computer maximum (that is the calibration).
    let profile = LgvProfile::turtlebot3();
    let platform = Platform::turtlebot3();
    let ec = profile.compute_model(&platform);
    let cycles_per_minute = platform.rate() * platform.cores as f64 * 60.0;
    let joules = ec.dynamic_energy(cycles_per_minute) + ec.idle_w * 60.0;
    let expected = profile.max_power.embedded_computer * 60.0;
    assert!((joules - expected).abs() < 1e-6, "{joules} vs {expected}");
}

#[test]
fn motor_energy_scales_with_distance_not_speed() {
    // Eq. 1d at constant cruise: P = P_l + m g μ v, so the *motion*
    // term integrates to m·g·μ·distance regardless of the speed it is
    // driven at — the paper's explanation for why offloading barely
    // changes motor energy (§VIII-D).
    let motor = LgvProfile::turtlebot3().motor_model();
    let distance = 10.0;
    let energy_at = |v: f64| {
        let secs = distance / v;
        let p_motion = motor.power(v, 0.0) - motor.loss_w;
        p_motion * secs
    };
    let slow = energy_at(0.1);
    let fast = energy_at(0.5);
    assert!(
        (slow - fast).abs() < 1e-9,
        "motion energy must depend on distance only: {slow} vs {fast}"
    );
}

#[test]
fn transmission_energy_is_negligible_at_mission_scale() {
    // Eq. 1b with the paper's numbers: 2.94 KB scans at 5 Hz for a
    // 60 s mission over a 20 Mb/s uplink.
    let t = TransmitModel { power_w: 1.3 };
    let per_scan = t.energy(2940, 20e6);
    let mission = per_scan * 5.0 * 60.0;
    // Fractions of a joule over a mission that burns hundreds.
    assert!(mission < 1.0, "wireless energy {mission} J");
}

#[test]
fn battery_runtime_matches_ledger_drain() {
    // Draining the ledger's joules from the pack costs exactly the
    // energy of the equivalent constant power.
    let profile = LgvProfile::turtlebot3();
    let mut battery = Battery::new_wh(profile.battery_wh);
    let mut ledger = EnergyLedger::new();
    let watts = 11.0;
    let span = Duration::from_secs(600);
    ledger.add_power(Component::EmbeddedComputer, watts, span);
    battery.drain(ledger.total_joules());
    // Runtime at `watts` is remaining joules / watts.
    let remaining_runtime = battery.remaining_j() / watts;
    let full_runtime = Battery::new_wh(profile.battery_wh).remaining_j() / watts;
    assert!(
        ((full_runtime - remaining_runtime) - 600.0).abs() < 1.0,
        "600 s of draw should cost 600 s of runtime: {}",
        full_runtime - remaining_runtime
    );
}

#[test]
fn offloading_saves_exactly_the_migrated_cycles() {
    // The ledger view of fine-grained migration: moving L cycles off
    // the vehicle saves k·L·f² joules (Eq. 1c), nothing more or less.
    let profile = LgvProfile::turtlebot3();
    let platform = Platform::turtlebot3();
    let ec = profile.compute_model(&platform);
    let total_cycles = 50.0e9;
    let migrated = 35.0e9;

    let mut local = EnergyLedger::new();
    local.add(Component::EmbeddedComputer, ec.dynamic_energy(total_cycles));
    let mut offloaded = EnergyLedger::new();
    offloaded.add(
        Component::EmbeddedComputer,
        ec.dynamic_energy(total_cycles - migrated),
    );

    let saved = local.total_joules() - offloaded.total_joules();
    assert!((saved - ec.dynamic_energy(migrated)).abs() < 1e-9);
}
