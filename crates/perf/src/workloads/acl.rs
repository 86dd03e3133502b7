//! `acl_4k` — classification dominates.
//!
//! The same one-pipelet program as `fwd_min`, but the table is keyed on
//! two ternary fields and holds `traffic::acl_ruleset(4000, 0xac1)`, which
//! auto-selects the decision-tree index. 90 % of the 4096 scheduled
//! packets are `matching_flow`s spread over the rules; 10 % are background
//! packets with random addresses, which drop unless a wide rule happens to
//! cover them (the generator draws a few catch-all rules per hundred, so
//! in practice they end in one of those — the harness's own linear scan
//! decides what to expect). Most of a traversal is the lookup, so this is the
//! inverse split of `fwd_min`: an index speed-up shows here and nowhere
//! else — and what it costs at install time shows in `setup_s`, because
//! the decision tree's install is quadratic today (which is also why the
//! workload stops at 4000 rules).

use super::fwd_min::{program, OUT_PORT, SCHEDULE_LEN, TABLE};
use super::single::{self, InstallLog, Schedule};
use crate::harness::{self, Meter, Scale};
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PipeletId, Switch, TofinoProfile};
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::Value;
use dejavu_traffic::{acl_ruleset, matching_flow, AclRule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value as Json;

/// Seed of the ruleset — fixed (it is `micro_dataplane`'s), while the
/// packets and their order follow `--seed`. The decision tree's shape
/// moves `pps` by ±10 % from one drawn ruleset to the next; letting the
/// benchmark seed draw it would put that spread into every run-to-run
/// comparison and force the bound of `pps` up on all seven workloads.
pub const RULESET_SEED: u64 = 0xac1;

/// Rules installed at each scale.
pub fn rules_for(scale: Scale) -> usize {
    match scale {
        Scale::Full => 4000,
        Scale::Quick => 1000,
        Scale::Smoke => 64,
    }
}

/// Builds the switch from nothing: program load plus one install per rule.
/// The build takes seconds, so it samples the calibration kernel itself,
/// through `tick`, every few milliseconds of installing.
pub fn build(rules: &[AclRule], log: &mut InstallLog, tick: &mut dyn FnMut()) -> Switch {
    let pid = PipeletId::ingress(0);
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.load_program(pid, program(true, rules.len().max(1024) as u32 * 2))
        .expect("program loads");
    let ternary = |val: u32, mask: u32| {
        KeyMatch::Ternary(
            Value::new(u128::from(val), 32),
            Value::new(u128::from(mask), 32),
        )
    };
    let mut next_tick = harness::TICK_S;
    for r in rules {
        let entry = TableEntry {
            matches: vec![
                ternary(r.src_val, r.src_mask),
                ternary(r.dst_val, r.dst_mask),
            ],
            action: "fwd".into(),
            action_args: vec![Value::new(u128::from(OUT_PORT), 16)],
            priority: r.priority,
        };
        log.time(|| sw.install_entry(pid, TABLE, entry))
            .expect("rule installs");
        if log.seconds >= next_tick {
            next_tick += harness::TICK_S;
            tick();
        }
    }
    sw
}

fn matches_any(rules: &[AclRule], src: u32, dst: u32) -> bool {
    rules
        .iter()
        .any(|r| src & r.src_mask == r.src_val && dst & r.dst_mask == r.dst_val)
}

fn frame(src: u32, dst: u32) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::udp()
        .src_ip(src)
        .dst_ip(dst)
        .src_port(1000)
        .dst_port(53)
        .payload(&[0u8; 18])
        .build()
}

/// 4096 distinct packets: nine in ten built to match a rule (spread evenly
/// over the ruleset), one in ten random background.
pub fn schedule(rules: &[AclRule], seed: u64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xac1);
    let mut packets = Vec::with_capacity(SCHEDULE_LEN);
    let mut expect = Vec::with_capacity(SCHEDULE_LEN);
    for i in 0..SCHEDULE_LEN {
        if i % 10 == 9 {
            // Background traffic: addresses drawn without looking at any
            // rule. The harness's own linear scan says what must happen
            // (every rule forwards, so any match emits, none drops).
            let (src, dst) = (rng.gen::<u32>(), rng.gen::<u32>());
            packets.push(InjectedPacket::new(frame(src, dst), 0));
            expect.push(if matches_any(rules, src, dst) {
                Disposition::Emitted { port: OUT_PORT }
            } else {
                Disposition::Dropped
            });
        } else {
            let rule = &rules[i * rules.len() / SCHEDULE_LEN];
            let (src, dst) = matching_flow(rule, seed.wrapping_add(i as u64));
            packets.push(InjectedPacket::new(frame(src, dst), 0));
            expect.push(Disposition::Emitted { port: OUT_PORT });
        }
    }
    let mut order: Vec<u32> = (0..SCHEDULE_LEN as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    Schedule {
        packets,
        expect,
        order,
    }
}

/// Runs the workload.
pub fn run(meter: &mut Meter<'_>) {
    let seed = meter.cfg.seed;
    let rules = acl_ruleset(rules_for(meter.cfg.scale), RULESET_SEED);
    let mut log = InstallLog::default();
    let mut sw = meter.setup(|tick| {
        log = InstallLog::default();
        build(&rules, &mut log, tick)
    });
    meter.out.note("rules", Json::UInt(rules.len() as u64));
    let sched = schedule(&rules, seed);
    let facts = single::oracle(&sw, &sched, &mut meter.out);
    meter.out.layer("recirc_per_pkt", facts.recirc_per_pkt);
    meter.out.layer("sim_latency_ns", facts.sim_latency_ns);
    meter.out.layer("asic.tables.install_us", log.mean_us());
    if meter.cfg.measure_s > 0.0 {
        let reps = meter.reps();
        single::measure(meter, &mut sw, &sched, reps);
    }
    if meter.cfg.trace_s > 0.0 {
        single::traced(meter, &mut sw, &sched);
    }
}
