//! Property-based tests over the core invariants:
//!
//! * SFC header wire codec round-trips for every field combination,
//! * parse ∘ deparse is the identity on well-formed packets,
//! * parser merging is *sound*: every packet accepted by an input parser is
//!   accepted by the merged generic parser with the same header view,
//! * the placement optimizers never do worse than the naive baseline, and
//!   the exhaustive optimum lower-bounds both, on random instances,
//! * the feedback-queue fluid simulation converges to the analytic fixed
//!   point for every (rate, k).

mod generators;

use generators::{arb_clean_nf, arb_messy_program, arb_subparser};
use proptest::prelude::*;

use dejavu_core::merge::merge_parsers;
use dejavu_core::placement::{ClusterPlacement, FleetProblem, PlacementProblem};
use dejavu_core::{ChainPolicy, ChainSet, SfcHeader};
use dejavu_p4ir::well_known;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// SFC header codec
// ---------------------------------------------------------------------

fn arb_sfc_header() -> impl Strategy<Value = SfcHeader> {
    (
        any::<u16>(),
        any::<u8>(),
        0u16..(1 << 13),
        0u16..(1 << 13),
        any::<[bool; 5]>(),
        any::<[(u8, u16); 4]>(),
        any::<u8>(),
    )
        .prop_map(
            |(path_id, idx, in_port, out_port, flags, context, next_protocol)| SfcHeader {
                path_id,
                service_index: idx,
                in_port,
                out_port,
                resub_flag: flags[0],
                recirc_flag: flags[1],
                drop_flag: flags[2],
                mirror_flag: flags[3],
                to_cpu_flag: flags[4],
                context,
                next_protocol,
            },
        )
}

proptest! {
    #[test]
    fn sfc_header_roundtrips(h in arb_sfc_header()) {
        let bytes = h.to_bytes();
        prop_assert_eq!(SfcHeader::from_bytes(&bytes), h);
    }
}

// ---------------------------------------------------------------------
// parse/deparse identity
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn parse_deparse_identity(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        ttl in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        tcp in any::<bool>(),
    ) {
        let base = if tcp {
            dejavu_traffic::PacketBuilder::tcp()
        } else {
            dejavu_traffic::PacketBuilder::udp()
        };
        let bytes = base
            .src_ip(src)
            .dst_ip(dst)
            .src_port(sport)
            .dst_port(dport)
            .ttl(ttl)
            .payload(&payload)
            .build();
        let cat: std::collections::HashMap<_, _> =
            [well_known::ethernet(), well_known::ipv4(), well_known::tcp(), well_known::udp()]
                .into_iter()
                .map(|h| (h.name.clone(), h))
                .collect();
        let pp = dejavu_asic::ParsedPacket::parse(&bytes, &well_known::eth_ip_l4_parser(), &cat)
            .expect("generated packet parses");
        prop_assert_eq!(pp.deparse(&cat).unwrap(), bytes);
    }
}

// ---------------------------------------------------------------------
// Parser merge soundness
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn merged_parser_accepts_what_inputs_accept(
        parsers in proptest::collection::vec(arb_subparser(), 1..5),
        proto in prop_oneof![Just(6u8), Just(17u8), Just(47u8)],
        is_ip in any::<bool>(),
    ) {
        let inputs: Vec<(String, dejavu_p4ir::ParserDag)> = parsers
            .into_iter()
            .enumerate()
            .map(|(i, d)| (format!("nf{i}"), d))
            .collect();
        let refs: Vec<(&str, &dejavu_p4ir::ParserDag)> =
            inputs.iter().map(|(n, d)| (n.as_str(), d)).collect();
        let (merged, ids) = merge_parsers(&refs).expect("compatible parsers merge");
        let cat: std::collections::HashMap<_, _> =
            [well_known::ethernet(), well_known::ipv4(), well_known::tcp(), well_known::udp()]
                .into_iter()
                .map(|h| (h.name.clone(), h))
                .collect();
        // A 60-byte packet, IPv4 or not, with the chosen protocol.
        let mut pkt = vec![0u8; 60];
        if is_ip {
            pkt[12] = 0x08;
        } else {
            pkt[12] = 0x86;
            pkt[13] = 0xdd;
        }
        pkt[23] = proto;
        for (name, dag) in &inputs {
            let input_path = dag.parse(&cat, &pkt).expect("sub-parsers accept everything");
            let merged_path = merged.parse(&cat, &pkt).unwrap_or_else(|e| {
                panic!("merged parser rejected a packet {name} accepted: {e}")
            });
            // Soundness: the merged accept path is a superset of each
            // input's path (same headers at same offsets, possibly more).
            for vertex in &input_path {
                prop_assert!(
                    merged_path.contains(vertex),
                    "merged path {:?} lost vertex {:?} from {}",
                    merged_path, vertex, name
                );
            }
            // Every input vertex got a global ID.
            for (h, off) in &input_path {
                prop_assert!(ids.get(h, *off).is_some());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Placement optimizer ordering
// ---------------------------------------------------------------------

fn arb_problem() -> impl Strategy<Value = PlacementProblem> {
    // 3..6 NFs, 1..3 chains over random subsequences, random small sizes.
    (3usize..6, 1usize..4, any::<u64>()).prop_map(|(n_nfs, n_chains, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let nfs: Vec<String> = (0..n_nfs).map(|i| format!("N{i}")).collect();
        let mut chains = Vec::new();
        for c in 0..n_chains {
            // Random non-empty subsequence in order.
            let mut seq: Vec<String> = nfs.iter().filter(|_| rng.gen_bool(0.7)).cloned().collect();
            if seq.is_empty() {
                seq.push(nfs[0].clone());
            }
            chains.push(ChainPolicy {
                path_id: (c + 1) as u16,
                name: format!("c{c}"),
                nfs: seq,
                weight: rng.gen_range(0.1..1.0),
            });
        }
        let stages: BTreeMap<String, u32> = nfs
            .iter()
            .map(|n| (n.clone(), rng.gen_range(1..4)))
            .collect();
        PlacementProblem::new(ChainSet { chains }, stages)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn optimizers_ordered_naive_ge_greedy_ge_exact(p in arb_problem()) {
        let naive = p.naive().ok().map(|pl| p.cost(&pl).unwrap());
        let greedy = p.greedy().ok().map(|pl| p.cost(&pl).unwrap());
        let exact = p.exhaustive(1 << 22).ok().map(|pl| p.cost(&pl).unwrap());
        if let (Some(naive), Some(greedy), Some(exact)) = (naive, greedy, exact) {
            prop_assert!(exact <= greedy + 1e-9, "exact {exact} > greedy {greedy}");
            prop_assert!(exact <= naive + 1e-9, "exact {exact} > naive {naive}");
            prop_assert!(greedy <= naive + 1e-9, "greedy {greedy} > naive {naive}");
        }
        // The single-switch cost is the M = 1 fleet objective, bit for bit.
        let single = FleetProblem::single(p.clone());
        for placement in [p.naive(), p.greedy()].into_iter().flatten() {
            let cost = p.cost(&placement).unwrap();
            let fleet = ClusterPlacement { switches: vec![placement] };
            prop_assert!(single.score(&fleet).unwrap().weighted == cost);
        }
    }

    #[test]
    fn annealing_never_worse_than_its_start(p in arb_problem(), seed in any::<u64>()) {
        if let (Ok(start), Ok(annealed)) = (p.naive(), p.anneal(seed, 500)) {
            let start_cost = p.cost(&start).unwrap();
            let annealed_cost = p.cost(&annealed).unwrap();
            prop_assert!(annealed_cost <= start_cost + 1e-9);
        }
    }
}

// ---------------------------------------------------------------------
// Feedback queue convergence
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn fluid_sim_converges_to_analytic(k in 1usize..6, rate in 1.0f64..400.0) {
        let analytic = dejavu_asic::feedback::effective_throughput_gbps(rate, k);
        let sim = dejavu_asic::feedback::simulate_fluid(rate, k, 3000);
        prop_assert!(
            (sim - analytic).abs() < rate * 0.02,
            "k={k} rate={rate}: sim {sim} vs analytic {analytic}"
        );
    }

    #[test]
    fn delivery_ratio_monotone_in_k(k in 1usize..10) {
        let a = dejavu_asic::feedback::delivery_ratio(k);
        let b = dejavu_asic::feedback::delivery_ratio(k + 1);
        prop_assert!(b <= a + 1e-12);
        prop_assert!(a > 0.0 && a <= 1.0);
    }
}

// ---------------------------------------------------------------------
// dejavu-lint robustness and composition stability
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn lint_never_panics_and_renders(program in arb_messy_program()) {
        let report = dejavu_p4ir::lint::check(&program);
        // Renderers total on any report.
        let pretty = report.render_pretty();
        let json = report.render_json();
        prop_assert!(json.starts_with('[') && json.ends_with(']'));
        // is_clean ⇔ nothing above Allow.
        prop_assert_eq!(
            report.is_clean(),
            report.errors().is_empty() && report.warnings().is_empty()
        );
        // Severity overrides are respected: everything demoted to Allow
        // makes any program clean.
        let mut cfg = dejavu_p4ir::LintConfig::new();
        for code in dejavu_p4ir::LintCode::ALL {
            cfg = cfg.set_severity(code, dejavu_p4ir::Severity::Allow);
        }
        let demoted = dejavu_p4ir::lint::check_with_config(&program, &cfg);
        prop_assert!(demoted.is_clean(), "demoted report not clean:\n{pretty}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Lint-clean NFs stay error-free after merge + composition, in both modes
    /// and regardless of slot order — the framework tables must never introduce
    /// an error-level finding of their own.
    #[test]
    fn clean_nfs_stay_clean_through_composition(
        a in arb_clean_nf("alpha"),
        b in arb_clean_nf("beta"),
        parallel in any::<bool>(),
        swap in any::<bool>(),
        ingress in any::<bool>(),
    ) {
        use dejavu_core::compose::{compose_pipelet, CompositionMode, PipeletPlan, PlannedNf};

        // Preconditions: each NF is individually clean.
        prop_assert!(dejavu_p4ir::lint::check(a.program()).is_clean());
        prop_assert!(dejavu_p4ir::lint::check(b.program()).is_clean());

        let merged = dejavu_core::merge::merge_programs("prop_sfc", &[&a, &b])
            .expect("clean NFs merge");
        let mut names = vec!["alpha", "beta"];
        if swap {
            names.reverse();
        }
        let plan = PipeletPlan {
            pipelet: if ingress {
                dejavu_asic::PipeletId::ingress(0)
            } else {
                dejavu_asic::PipeletId::egress(0)
            },
            nfs: names.into_iter().map(PlannedNf::indexed).collect(),
            mode: if parallel { CompositionMode::Parallel } else { CompositionMode::Sequential },
        };
        let program = compose_pipelet(&merged, &plan).expect("clean NFs compose");
        let report = dejavu_core::lint::lint_pipelet(&program, &plan);
        prop_assert!(
            report.errors().is_empty(),
            "composition introduced errors:\n{}",
            report.render_pretty()
        );
    }
}
