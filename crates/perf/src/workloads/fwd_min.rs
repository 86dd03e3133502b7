//! `fwd_min` — bare forwarding at the smallest frame.
//!
//! One ingress pipelet, an eth+ipv4 parser, a 100-entry exact table on
//! the destination MAC, every packet hits, 60-byte frames, one packet in
//! flight through [`Switch::inject_buf`]. Parse, one action, deparse and
//! switch dispatch are all there is, so this is the per-packet floor: any
//! added per-packet handling shows here undiluted, and the index does
//! almost nothing.

use super::single::{self, InstallLog, Schedule};
use crate::harness::Meter;
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PipeletId, Switch, TofinoProfile};
use dejavu_p4ir::builder::*;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::{fref, well_known, Expr, FieldRef, Program, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Entries in the exact table (and distinct packets in the schedule).
pub const ENTRIES: usize = 100;
/// Scheduled packets.
pub const SCHEDULE_LEN: usize = 4096;
/// Port every hit forwards to.
pub const OUT_PORT: u16 = 2;
/// The table.
pub const TABLE: &str = "fwd";

/// The one-table forwarding program shared with `acl_4k` (which swaps the
/// key for two ternary fields).
pub fn program(acl: bool, capacity: u32) -> Program {
    let table = TableBuilder::new(TABLE);
    let table = if acl {
        table
            .key_ternary(fref("ipv4", "src_addr"))
            .key_ternary(fref("ipv4", "dst_addr"))
    } else {
        table.key_exact(fref("ethernet", "dst_mac"))
    };
    ProgramBuilder::new("fwd")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .parser(
            ParserBuilder::new()
                .node("eth", "ethernet", 0)
                .node("ip", "ipv4", 14)
                .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                .accept("ip")
                .start("eth"),
        )
        .action(
            ActionBuilder::new("fwd")
                .param("port", 16)
                .set(FieldRef::meta("egress_spec"), Expr::Param("port".into()))
                .build(),
        )
        .action(ActionBuilder::new("deny").drop_packet().build())
        .table(
            table
                .action("fwd")
                .default_action("deny")
                .size(capacity)
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply(TABLE).build())
        .entry("ingress")
        .build()
        .expect("forwarding program validates")
}

/// The MAC of entry `i` under `seed` (distinct per entry, seeded so a
/// different seed installs and sends different keys).
fn mac(seed: u64, i: usize) -> u64 {
    (seed.wrapping_mul(0x9e37_79b9) & 0xffff_0000) << 16 | i as u64
}

/// A 60-byte UDP frame addressed to `dst_mac`.
fn frame(dst_mac: u64) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::udp()
        .dst_mac(dst_mac)
        .src_port(1000)
        .dst_port(53)
        .payload(&[0u8; 18])
        .build()
}

/// Builds the switch from nothing: program load plus `ENTRIES` installs.
pub fn build(seed: u64, log: &mut InstallLog) -> Switch {
    let pid = PipeletId::ingress(0);
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.load_program(pid, program(false, 1024))
        .expect("program loads");
    for i in 0..ENTRIES {
        let entry = TableEntry {
            matches: vec![KeyMatch::Exact(Value::new(u128::from(mac(seed, i)), 48))],
            action: "fwd".into(),
            action_args: vec![Value::new(u128::from(OUT_PORT), 16)],
            priority: 0,
        };
        log.time(|| sw.install_entry(pid, TABLE, entry))
            .expect("entry installs");
    }
    sw
}

/// One packet per entry, sent in a seeded uniform order.
pub fn schedule(seed: u64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf0d1);
    Schedule {
        packets: (0..ENTRIES)
            .map(|i| InjectedPacket::new(frame(mac(seed, i)), 0))
            .collect(),
        expect: vec![Disposition::Emitted { port: OUT_PORT }; ENTRIES],
        order: (0..SCHEDULE_LEN)
            .map(|_| rng.gen_range(0..ENTRIES) as u32)
            .collect(),
    }
}

/// Runs the workload.
pub fn run(meter: &mut Meter<'_>) {
    let seed = meter.cfg.seed;
    let mut log = InstallLog::default();
    let mut sw = meter.setup(|_| {
        log = InstallLog::default();
        build(seed, &mut log)
    });
    let sched = schedule(seed);
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
