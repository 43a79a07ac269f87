//! Figure 11 — network latency and bandwidth of UDP transmission in a
//! wireless network, while the LGV drives from point A out to the
//! weak-signal point C and back.
//!
//! Reproduces the paper's §VIII-C experiment: the cloud-hosted Path
//! Tracking node streams velocity messages at a fixed 5 Hz; the robot
//! measures (a) the observed RTT — which stays misleadingly healthy
//! thanks to UDP's silent sender-side discards (Fig. 7) — and (b) the
//! packet bandwidth, which collapses exactly where the signal dies.
//! Algorithm 2 (threshold 4 packets/s + signal direction) switches the
//! nodes local on the way out and back to the cloud on the return.

use crate::suite::ScenarioCtx;
use crate::{write_banner, TablePrinter};
use lgv_middleware::{Bus, Switcher, SwitcherConfig, TopicName};
use lgv_net::link::{DuplexLink, LinkConfig, RemoteSite};
use lgv_net::measure::SignalDirectionEstimator;
use lgv_net::signal::WirelessConfig;
use lgv_offload::netctl::{NetControl, NetDecision};
use lgv_sim::world::presets;
use lgv_types::prelude::*;
use std::io;

/// Regenerate Figure 11.
pub fn run(ctx: &mut ScenarioCtx) -> io::Result<()> {
    write_banner(
        ctx.out,
        "Figure 11: UDP latency & bandwidth on an A -> C -> A drive",
        "latency looks healthy until deep in the dead zone (UDP best-effort hides \
         sender discards); bandwidth tracks loss; threshold 4 of 5 Hz; switch local \
         on (bw < 4, retreating), back to cloud on (bw > 4, approaching)",
    )?;

    let a = presets::arena_point_a().position();
    let c = presets::arena_point_c();
    let wap = presets::arena_wap();

    let mut rng = SimRng::seed_from_u64(ctx.seed);
    let mut link_cfg = LinkConfig::new(RemoteSite::CloudServer, wap);
    link_cfg.wireless = WirelessConfig::default().with_weak_radius(16.0);
    let link = DuplexLink::new(link_cfg, &mut rng);

    let robot_bus = Bus::new();
    let remote_bus = Bus::new();
    let sw_cfg = SwitcherConfig {
        up_topics: vec![(TopicName::SCAN, 1)],
        down_topics: vec![(TopicName::CMD_VEL_NAV, 1)],
    };
    let mut switcher = Switcher::new(link, robot_bus.clone(), remote_bus.clone(), &sw_cfg);
    let cmd_sub = robot_bus.subscribe(TopicName::CMD_VEL_NAV, 1);
    let remote_scan_sub = remote_bus.subscribe(TopicName::SCAN, 1);

    // Stream bus/channel/RTT events into the scenario tracer.
    let tracer = ctx.tracer.clone();
    switcher.set_tracer(tracer.clone());
    robot_bus.set_tracer(tracer.clone());
    remote_bus.set_tracer(tracer.clone());

    let mut direction = SignalDirectionEstimator::new(wap);
    let mut netctl = NetControl::new();
    let mut remote_active = true;

    // Scripted drive: out along +x at 0.5 m/s, then back.
    let speed = 0.5;
    let out_dist = a.distance(c);
    let leg_secs = out_dist / speed;
    let total_secs = (2.0 * leg_secs).ceil() as u64;

    let mut t = TablePrinter::new(vec![
        "t(s)",
        "pos x(m)",
        "rtt(ms)",
        "bw(pkt/s)",
        "dir",
        "state",
        "event",
    ]);
    let mut now = SimTime::EPOCH;
    let period = Duration::from_millis(200);
    let mut delivered_cmds = 0u64;

    for step in 0..(total_secs * 5) {
        tracer.set_time_ns(now.as_nanos());
        let secs = step as f64 * 0.2;
        let x = if secs < leg_secs {
            a.x + speed * secs
        } else {
            c.x - speed * (secs - leg_secs)
        };
        let pos = Point2::new(x.clamp(a.x, c.x), a.y);

        // Robot uplink: the 5 Hz laser stream the cloud node consumes.
        robot_bus
            .publish(TopicName::SCAN, &vec![0.5f64; 360])
            .unwrap();

        // Advance the network in 25 ms substeps; the cloud Path
        // Tracking node replies with a velocity command as soon as a
        // scan is delivered (fixed 5 Hz when the link is healthy).
        for k in 0..8 {
            let sub_now = now + Duration::from_millis(25 * k);
            switcher.tick(sub_now, pos);
            if remote_scan_sub
                .recv_latest::<Vec<f64>>()
                .unwrap_or(None)
                .is_some()
            {
                let cmd = VelocityCmd {
                    stamp: sub_now,
                    twist: Twist::new(0.5, 0.0),
                    source: VelocitySource::Navigation,
                };
                remote_bus.publish(TopicName::CMD_VEL_NAV, &cmd).unwrap();
            }
        }
        while cmd_sub.recv_bytes().is_some() {
            delivered_cmds += 1;
        }

        let dir = direction.update(now, pos);
        let bw = switcher.downlink_bandwidth(now);
        let rtt = switcher.rtt().latest().map(|d| d.as_millis_f64());

        let mut event = String::new();
        match netctl.decide(now, bw, dir, remote_active) {
            NetDecision::InvokeLocal => {
                remote_active = false;
                event = "SWITCH -> LOCAL".into();
            }
            NetDecision::InvokeRemote => {
                remote_active = true;
                event = "SWITCH -> CLOUD".into();
            }
            NetDecision::Keep => {}
        }

        // Log once per second (and at switch events).
        if step % 5 == 0 || !event.is_empty() {
            t.row(vec![
                format!("{secs:.0}"),
                format!("{:.1}", pos.x),
                rtt.map_or("-".into(), |r| format!("{r:.1}")),
                format!("{bw:.1}"),
                format!("{dir:+.2}"),
                if remote_active { "cloud" } else { "local" }.to_string(),
                event,
            ]);
        }
        now += period;
    }
    t.write_to(ctx.out)?;
    t.save_csv_to(ctx.out, "fig11_trace")?;
    tracer.flush();

    let stats = switcher.stats();
    writeln!(ctx.out)?;
    writeln!(
        ctx.out,
        "downlink: sent {}  delivered {}  sender-discarded {} (silent, invisible to latency)",
        stats.down_sent, delivered_cmds, stats.down_discarded
    )?;
    writeln!(
        ctx.out,
        "Algorithm 2 switches: {} (expect 2: out at the dead zone, back on return)",
        netctl.switches
    )
}
