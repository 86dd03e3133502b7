//! `dejavu-lint` over the whole NF library and the Fig. 2 deployment.
//!
//! ```text
//! cargo run -p dejavu-examples --bin lint_nfs
//! ```
//!
//! Every pass of the static verifier, in the order a chain operator runs
//! them before deployment, all reporting into one [`LintReport`]:
//!
//! 1. **Standalone NFs** — every program in the library goes through the
//!    two per-program passes the allocator gate runs: the structural
//!    dataflow pass (DJV0xx: header validity, metadata def-use, structure)
//!    and the abstract-interpretation pass (DJV2xx: truncation, infeasible
//!    paths, unbounded recirculation).
//! 2. **Composed pipelets** — the paper's §5 placement (classifier+firewall
//!    on ingress 0, vgw+lb on egress 1, router on ingress 1) is merged and
//!    composed per pipelet; each pipelet gets the same two passes under the
//!    framework-aware configuration plus the DJV101 SFC invariants, then
//!    the cross-pipelet register-hazard check (DJV301) runs over all
//!    composed programs together.
//! 3. **Recirculation budget** — the Fig. 2 chain set's weighted
//!    recirculation demand is priced against the Wedge-100B loopback
//!    provisioning (DJV102).
//! 4. **Stateful NFs** — the three learn-path NFs (dynamic NAT, conntrack
//!    firewall, affinity LB) get the per-program passes, and their declared
//!    learn contracts are verified against their programs (DJV302), with
//!    the documented idle-timeout recipe supplying the aged-table set
//!    (DJV303).
//!
//! Exit status is non-zero if any pass reports a finding at warning level
//! or above (`Allow`-level advisories do not count), so the binary doubles
//! as a CI gate. Pass `--json` for machine-readable output. The merged
//! findings are always written to `target/experiments/LINT_findings.json`
//! as a CI artifact.

use dejavu_core::prelude::*;
use dejavu_p4ir::{analyze, lint, Program};
use std::collections::BTreeSet;

fn library() -> Vec<NfModule> {
    let mut nfs = dejavu_nf::edge_cloud_suite();
    nfs.extend([
        dejavu_nf::nat::nat(),
        dejavu_nf::mirror_tap::mirror_tap(),
        dejavu_nf::rate_limiter::rate_limiter(),
        dejavu_nf::syn_guard::syn_guard(),
        dejavu_nf::vxlan_gateway::vxlan_gateway(),
        dejavu_nf::null_nf("noop"),
    ]);
    nfs
}

/// The two per-program passes under the default configuration.
fn verify(program: &Program) -> LintReport {
    let mut report = lint::check(program);
    report.merge(analyze::check(program));
    report
}

fn show(label: &str, report: &LintReport, json: bool) {
    if json {
        println!("{}", report.render_json());
        return;
    }
    if report.is_clean() {
        println!("  {label}: clean");
    } else {
        println!("  {label}:");
        for line in report.render_pretty().lines() {
            println!("    {line}");
        }
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut all = LintReport::default();
    let mut tally = |label: &str, report: LintReport| {
        show(label, &report, json);
        all.merge(report);
    };

    println!("== pass 1: standalone NF programs ==");
    for nf in library() {
        tally(nf.name(), verify(nf.program()));
    }

    println!("\n== pass 2: composed pipelets (Fig. 2 placement) ==");
    let nfs = dejavu_nf::edge_cloud_suite();
    let nf_refs: Vec<_> = nfs.iter().collect();
    let merged = merge_programs("dejavu", &nf_refs).expect("suite merges");
    let placement = Placement::sequential(vec![
        (PipeletId::ingress(0), vec!["classifier", "firewall"]),
        (PipeletId::egress(1), vec!["vgw", "lb"]),
        (PipeletId::ingress(1), vec!["router"]),
    ]);
    let profile = TofinoProfile::wedge_100b_32x();
    let mut composed: Vec<(String, Program)> = Vec::new();
    for pipeline in 0..profile.pipelines {
        for gress in [Gress::Ingress, Gress::Egress] {
            let pipelet = PipeletId { pipeline, gress };
            let nf_names = placement
                .pipelets
                .get(&pipelet)
                .cloned()
                .unwrap_or_default();
            let plan = PipeletPlan {
                pipelet,
                nfs: nf_names
                    .iter()
                    .map(|n| {
                        if n == "classifier" {
                            PlannedNf::entry(n.clone())
                        } else {
                            PlannedNf::indexed(n.clone())
                        }
                    })
                    .collect(),
                mode: CompositionMode::Sequential,
            };
            let program = compose_pipelet(&merged, &plan).expect("pipelet composes");
            let mut report = lint_pipelet(&program, &plan);
            report.merge(analyze::check(&program));
            tally(&format!("{pipelet} [{}]", nf_names.join(", ")), report);
            composed.push((pipelet.to_string(), program));
        }
    }
    let labeled: Vec<(String, &Program)> = composed.iter().map(|(l, p)| (l.clone(), p)).collect();
    tally("cross-pipelet registers", analyze_pipelets(&labeled));

    println!("\n== pass 3: recirculation budget ==");
    let chains = ChainSet::edge_cloud_example();
    let spec = BudgetSpec {
        profile: &profile,
        loopback_ports: 2, // ports 15 and 16, as in the §5 configuration
        offered_gbps: 100.0,
        entry_pipeline: 0,
        exit_pipeline: 0,
    };
    tally(
        &format!(
            "{} chains @ {:.0} Gbps vs {:.0} Gbps loopback",
            chains.chains.len(),
            spec.offered_gbps,
            spec.recirc_capacity_gbps()
        ),
        lint_chain_budget(&chains, &placement, &spec),
    );

    println!("\n== pass 4: stateful NFs and learn contracts ==");
    let stateful: Vec<(NfModule, LearnContract, &str)> = vec![
        (
            dejavu_nf::nat::dynamic_nat(),
            dejavu_nf::nat::nat_learn_contract(),
            dejavu_nf::nat::NAT_IN_TABLE,
        ),
        (
            dejavu_nf::firewall::conntrack_firewall(),
            dejavu_nf::firewall::conntrack_learn_contract(),
            dejavu_nf::firewall::FW_CONN_TABLE,
        ),
        (
            dejavu_nf::load_balancer::affinity_lb(),
            dejavu_nf::load_balancer::affinity_learn_contract(),
            dejavu_nf::load_balancer::AFFINITY_TABLE,
        ),
    ];
    for (nf, contract, aged_table) in &stateful {
        tally(nf.name(), verify(nf.program()));
        // The documented deployment recipe ages every learned table
        // (`Deployment::set_idle_timeout`); the contract check verifies the
        // digest layout against the table/action it feeds.
        let aged: BTreeSet<String> = [aged_table.to_string()].into();
        tally(
            &format!("{}/{} contract", contract.nf, contract.stream),
            check_learn_contracts(nf.program(), std::slice::from_ref(contract), &aged),
        );
    }

    let out_dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(out_dir).expect("create target/experiments");
    let out = out_dir.join("LINT_findings.json");
    std::fs::write(&out, all.render_json()).expect("write findings artifact");
    println!("\nfindings artifact: {}", out.display());

    if !all.is_clean() {
        println!(
            "\nFAIL: {} error(s), {} warning(s)",
            all.errors().len(),
            all.warnings().len()
        );
        std::process::exit(1);
    }
    println!("\nOK: library, composed pipelets, budget and learn contracts all lint clean.");
}
