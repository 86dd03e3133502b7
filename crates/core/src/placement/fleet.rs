//! The fleet model: placements over back-to-back switches, the one
//! objective and the one feasibility rule (see the [module doc](super)).

use super::{walk, Placement, PlacementError, PlacementProblem, RecircGranularity};
use crate::chain::{ChainPolicy, ChainSet};
use dejavu_asic::{PipeletId, TimingModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Placement over a back-to-back cluster: one single-switch placement per
/// member, plus the switch each NF is pinned to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterPlacement {
    /// Per-switch placements, indexed by position in the cluster chain.
    pub switches: Vec<Placement>,
}

impl ClusterPlacement {
    /// Which switch hosts an NF.
    pub fn switch_of(&self, nf: &str) -> Option<usize> {
        locate(&self.switches, nf).map(|(sw, _)| sw)
    }
}

/// The first `(switch, pipelet)` hosting an NF.
pub(super) fn locate(switches: &[Placement], nf: &str) -> Option<FleetSlot> {
    let mut hosts = switches.iter().enumerate();
    hosts.find_map(|(sw, p)| Some((sw, p.location(nf)?)))
}

/// Cost of one chain over a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterCost {
    /// On-chip recirculations (sum across member switches).
    pub recirculations: u32,
    /// On-chip resubmissions.
    pub resubmissions: u32,
    /// Off-chip switch-to-switch hops.
    pub inter_switch_hops: u32,
}

impl ClusterCost {
    /// Latency contribution of the loops and hops under a timing model
    /// (pipe traversals excluded — those depend on chain length, not
    /// placement).
    pub fn loop_latency_ns(&self, t: &TimingModel) -> f64 {
        f64::from(self.recirculations) * t.recirc_on_chip_ns
            + f64::from(self.resubmissions) * t.resubmit_ns
            + f64::from(self.inter_switch_hops) * t.recirc_off_chip_ns
    }
}

/// A cluster placement problem: the single-switch surrogate applies per
/// member; chains may span switches in cluster order.
#[derive(Debug, Clone)]
pub struct ClusterProblem {
    /// The single-switch problem template (stage budgets, cost weights).
    pub template: PlacementProblem,
    /// Number of back-to-back switches.
    pub cluster_size: usize,
    /// Objective weight of one inter-switch hop relative to one on-chip
    /// recirculation. Off-chip hops cost bandwidth on inter-switch links
    /// and ≈2× the latency (Fig. 8(b)).
    pub hop_weight: f64,
}

impl ClusterProblem {
    /// New problem over `cluster_size` switches.
    pub fn new(template: PlacementProblem, cluster_size: usize) -> Self {
        ClusterProblem {
            template,
            cluster_size,
            hop_weight: 2.0,
        }
    }

    /// Evaluates one chain: per-switch traversal costs plus hops between
    /// consecutive switches in visit order. Chains must visit switches in
    /// monotonically non-decreasing cluster order (back-to-back wiring);
    /// each order violation costs a full round trip (2 hops).
    pub fn chain_cost(
        &self,
        chain: &ChainPolicy,
        placement: &ClusterPlacement,
    ) -> Result<ClusterCost, PlacementError> {
        chain_cost(&self.template, chain, &placement.switches, false)
    }

    /// Greedy spill placement: fill switch 0's pipelets with the
    /// single-switch greedy optimizer over the NFs that fit; overflow NFs
    /// spill to the next switch, preserving chain order.
    pub fn greedy_spill(&self) -> Result<ClusterPlacement, PlacementError> {
        let mut remaining = self.template.canonical_order();
        let mut switches = Vec::new();
        for _ in 0..self.cluster_size {
            if remaining.is_empty() {
                switches.push(Placement::default());
                continue;
            }
            // Take the longest prefix of `remaining` that fits one switch
            // under the stage surrogate.
            let take = (1..=remaining.len())
                .rev()
                .find(|&n| self.prefix_fits(&remaining[..n]))
                .ok_or_else(|| {
                    PlacementError::Infeasible("an NF does not fit any single switch".into())
                })?;
            let prefix: Vec<String> = remaining.drain(..take).collect();
            // Optimize this switch's sub-problem with the single-switch
            // machinery over sub-chains restricted to the prefix.
            let mut sub_problem = self.template.clone();
            sub_problem.chains = self.restrict_chains(&prefix);
            switches.push(sub_problem.greedy()?);
        }
        if !remaining.is_empty() {
            return Err(PlacementError::Infeasible(format!(
                "{} NFs left over after {} switches",
                remaining.len(),
                self.cluster_size
            )));
        }
        Ok(ClusterPlacement { switches })
    }

    /// Do these NFs fit a single switch (stage surrogate, ignoring pipelet
    /// split granularity beyond the per-pipelet bound)?
    fn prefix_fits(&self, nfs: &[String]) -> bool {
        // First-fit-decreasing bin packing over the switch's pipelets, with
        // the same stage surrogate the single-switch optimizers use — a
        // conservative feasibility check so the per-switch greedy pass
        // cannot be handed an impossible prefix.
        let bins = 2 * self.template.pipelines;
        let cap = self
            .template
            .stages_per_pipelet
            .saturating_sub(self.template.framework_stages_fixed);
        let mut sizes: Vec<u32> = nfs
            .iter()
            .map(|n| {
                self.template.nf_stages.get(n).copied().unwrap_or(1)
                    + self.template.framework_stages_per_nf
            })
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let mut load = vec![0u32; bins];
        'items: for size in sizes {
            for slot in load.iter_mut() {
                if *slot + size <= cap {
                    *slot += size;
                    continue 'items;
                }
            }
            return false;
        }
        true
    }

    /// Restricts every chain to the NFs present in `subset`, keeping order.
    fn restrict_chains(&self, subset: &[String]) -> ChainSet {
        let restrict = |c: &ChainPolicy| {
            let mut c = c.clone();
            c.nfs.retain(|n| subset.contains(n));
            (!c.nfs.is_empty()).then_some(c)
        };
        ChainSet {
            chains: self
                .template
                .chains
                .chains
                .iter()
                .filter_map(restrict)
                .collect(),
        }
    }
}

/// The one per-chain evaluator: locates every NF once, then walks each
/// maximal run of the chain on one switch — a slice of the visit list — with
/// the single-switch traversal model. Unplaced NFs are passed over with
/// `skip_unplaced` and an error otherwise.
fn chain_cost(
    t: &PlacementProblem,
    chain: &ChainPolicy,
    switches: &[Placement],
    skip_unplaced: bool,
) -> Result<ClusterCost, PlacementError> {
    let (mut hosts, mut visits) = (Vec::new(), Vec::new());
    for nf in &chain.nfs {
        match locate(switches, nf) {
            Some((sw, pipelet)) => {
                hosts.push(sw);
                visits.push((nf, pipelet));
            }
            None if skip_unplaced => {}
            None => return Err(PlacementError::UnplacedNf(nf.clone())),
        }
    }
    let mut cost = ClusterCost::default();
    let (mut start, mut prev) = (0, None);
    for run in hosts.chunk_by(|a, b| a == b) {
        let sw = run[0];
        // Inter-switch hops: 1 per forward transition, 2 per backward
        // (round trip through the chain of switches is modelled coarsely).
        if let Some(prev) = prev {
            let hops = if sw >= prev {
                sw - prev
            } else {
                2 * (prev - sw)
            };
            cost.inter_switch_hops += hops as u32;
        }
        // Entry/exit pipelines: use the template defaults; refining per
        // segment is future work mirrored from the paper's.
        let c = walk(
            &chain.name,
            &visits[start..start + run.len()],
            &switches[sw],
            (t.entry_pipeline, t.exit_pipeline),
            RecircGranularity::PerPort,
        )?;
        cost.recirculations += c.recirculations;
        cost.resubmissions += c.resubmissions;
        start += run.len();
        prev = Some(sw);
    }
    Ok(cost)
}

/// Latency estimate for a chain over a cluster: per-pipelet traversals plus
/// loop/hop penalties from the cost breakdown.
pub fn chain_latency_ns(
    cost: &ClusterCost,
    pipelet_passes: u32,
    stages_per_pipelet: usize,
    timing: &TimingModel,
) -> f64 {
    timing.mac_rx_ns
        + timing.mac_tx_ns
        + f64::from(pipelet_passes) * (timing.pipelet_ns(stages_per_pipelet) + timing.tm_ns)
        + cost.loop_latency_ns(timing)
}

/// One slot an NF can be assigned to: a pipelet on a cluster member.
pub type FleetSlot = (usize, PipeletId);

/// The fleet placement problem: a cluster problem (which already carries
/// the chain set, per-NF stage demands and the recirculation / hop
/// weights) plus the stage-pressure weight unique to the fleet objective.
#[derive(Debug, Clone)]
pub struct FleetProblem {
    /// The underlying N-chain × M-switch cost model.
    pub cluster: ClusterProblem,
    /// Objective weight of the quadratic per-switch stage-pressure term.
    pub pressure_weight: f64,
}

/// Scored evaluation of one fleet placement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetScore {
    /// Total on-chip recirculations across all chains (unweighted).
    pub recirculations: u32,
    /// Total resubmissions across all chains (unweighted).
    pub resubmissions: u32,
    /// Total inter-switch hops across all chains (unweighted).
    pub inter_switch_hops: u32,
    /// Quadratic stage-pressure term (Σ utilization²).
    pub pressure: f64,
    /// The full weighted objective the searches minimize.
    pub weighted: f64,
}

/// The hop and pressure weights of the M = 1 instance: with one switch there
/// are no hops, and the paper's objective has no pressure term.
pub(super) const SINGLE: (f64, f64) = (0.0, 0.0);

/// The one objective over the switches of a placement — the only place a
/// weight multiplies a count. `(hop_weight, pressure_weight)` are the
/// fleet's, or [`SINGLE`]; `skip_unplaced` prices a partial placement
/// (greedy construction).
pub(super) fn score(
    t: &PlacementProblem,
    (hop_weight, pressure_weight): (f64, f64),
    switches: &[Placement],
    skip_unplaced: bool,
) -> Result<FleetScore, PlacementError> {
    // The quadratic stage-pressure term: Σ over switches of (stage demand
    // / stage capacity)². Convex, so balanced fleets score lower than
    // concentrated ones at equal total demand.
    let capacity = f64::from(t.stages_per_pipelet) * (2 * t.pipelines) as f64;
    let pressure = switches
        .iter()
        .map(|p| {
            let demand: u32 = p
                .pipelets
                .values()
                .map(|nfs| t.pipelet_stage_demand(nfs))
                .sum();
            let util = f64::from(demand) / capacity;
            util * util
        })
        .sum();
    let mut score = FleetScore {
        pressure,
        ..FleetScore::default()
    };
    for chain in &t.chains.chains {
        let c = chain_cost(t, chain, switches, skip_unplaced)?;
        score.recirculations += c.recirculations;
        score.resubmissions += c.resubmissions;
        score.inter_switch_hops += c.inter_switch_hops;
        score.weighted += chain.weight
            * (f64::from(c.recirculations) * t.cost_model.recirc_weight
                + f64::from(c.resubmissions) * t.cost_model.resub_weight
                + f64::from(c.inter_switch_hops) * hop_weight);
    }
    score.weighted += pressure_weight * score.pressure;
    Ok(score)
}

/// The one feasibility rule over the switches of a placement: every NF of
/// `nfs` (the chains' NFs) placed exactly once, every pipelet within its
/// stage budget, and every chain visiting switches in non-decreasing order
/// (the back-to-back wiring `deploy_cluster` builds is forward-only, so a
/// non-monotone "optimum" would be undeployable).
pub(super) fn feasible(t: &PlacementProblem, nfs: &[String], switches: &[Placement]) -> bool {
    let placed_once =
        |nf: &String| switches.iter().filter(|p| p.location(nf).is_some()).count() == 1;
    let monotone = |chain: &ChainPolicy| {
        let mut last = 0usize;
        chain.nfs.iter().all(|nf| match locate(switches, nf) {
            Some((sw, _)) if sw >= last => {
                last = sw;
                true
            }
            _ => false,
        })
    };
    nfs.iter().all(placed_once)
        && switches
            .iter()
            .all(|p| p.pipelets.values().all(|nfs| t.fits(nfs)))
        && t.chains.chains.iter().all(monotone)
}

impl FleetProblem {
    /// Wraps a cluster problem with the default pressure weight.
    pub fn new(cluster: ClusterProblem) -> Self {
        FleetProblem {
            cluster,
            pressure_weight: 1.0,
        }
    }

    /// The paper's single-ASIC instance: one switch, no hop term, no
    /// pressure term — the objective is the weighted recirculation count.
    pub fn single(template: PlacementProblem) -> Self {
        let (hop_weight, pressure_weight) = SINGLE;
        FleetProblem {
            cluster: ClusterProblem {
                template,
                cluster_size: 1,
                hop_weight,
            },
            pressure_weight,
        }
    }

    /// The chain set (and its weights — the assumed traffic matrix).
    pub fn chains(&self) -> &ChainSet {
        &self.cluster.template.chains
    }

    /// Number of cluster members.
    pub fn switches(&self) -> usize {
        self.cluster.cluster_size
    }

    /// Every assignable slot, in (switch, alternating-pipelet) order.
    pub fn slots(&self) -> Vec<FleetSlot> {
        let pipelets = self.cluster.template.pipelets_alternating();
        (0..self.cluster.cluster_size)
            .flat_map(|s| pipelets.iter().map(move |p| (s, *p)))
            .collect()
    }

    /// The NFs to place, in canonical chain order. Search assignment
    /// vectors are indexed by this order.
    pub fn nfs(&self) -> Vec<String> {
        self.cluster.template.canonical_order()
    }

    /// Fleet feasibility — the [module doc](super)'s one rule.
    pub fn feasible(&self, placement: &ClusterPlacement) -> bool {
        feasible(&self.cluster.template, &self.nfs(), &placement.switches)
    }

    /// Evaluates the full fleet objective. Errors if a chain NF is
    /// unplaced or a traversal diverges; callers gate on
    /// [`feasible`](Self::feasible) first.
    pub fn score(&self, placement: &ClusterPlacement) -> Result<FleetScore, PlacementError> {
        let weights = (self.cluster.hop_weight, self.pressure_weight);
        score(&self.cluster.template, weights, &placement.switches, false)
    }

    /// A starting placement: the cluster greedy-spill heuristic when it
    /// succeeds (its result may break the monotone rule — the searches
    /// check), otherwise the monotone first-fit sweep.
    pub fn seed_placement(&self) -> Result<ClusterPlacement, PlacementError> {
        // `greedy()` canonicalizes each member under its restricted chains,
        // whose first-appearance order is the template's restricted to them.
        self.cluster
            .greedy_spill()
            .or_else(|greedy_err| self.monotone_first_fit().map_err(|_| greedy_err))
    }

    /// Fallback seed: NFs in a topological order of the chain-precedence
    /// DAG, packed first-fit into slots with a never-retreating cursor, so
    /// every chain visits switches in non-decreasing order.
    pub(super) fn monotone_first_fit(&self) -> Result<ClusterPlacement, PlacementError> {
        let t = &self.cluster.template;
        let nfs = self.nfs();
        // Kahn's algorithm over "a precedes b in some chain" edges; ties
        // broken by canonical index so the seed is deterministic.
        let index: BTreeMap<&str, usize> = nfs
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut indegree = vec![0usize; nfs.len()];
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nfs.len()];
        for chain in &t.chains.chains {
            for pair in chain.nfs.windows(2) {
                let (a, b) = (index[pair[0].as_str()], index[pair[1].as_str()]);
                if !edges[a].contains(&b) {
                    edges[a].push(b);
                    indegree[b] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = (0..nfs.len()).filter(|i| indegree[*i] == 0).collect();
        let mut order = Vec::with_capacity(nfs.len());
        while let Some(&i) = ready.iter().min() {
            ready.retain(|j| *j != i);
            order.push(i);
            for &b in &edges[i] {
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    ready.push(b);
                }
            }
        }
        if order.len() != nfs.len() {
            return Err(PlacementError::Infeasible(
                "chain precedence is cyclic; no monotone placement exists".to_string(),
            ));
        }
        let slots = self.slots();
        let mut switches = vec![Placement::default(); self.cluster.cluster_size];
        let mut cursor = 0usize;
        for &i in &order {
            let nf = &nfs[i];
            let placed = (cursor..slots.len()).find(|&s| {
                let (sw, pipelet) = slots[s];
                t.with_nf(&switches[sw], pipelet, nf).is_some()
            });
            let Some(s) = placed else {
                return Err(PlacementError::Infeasible(format!(
                    "monotone first-fit ran out of slots at NF {nf}"
                )));
            };
            let (sw, pipelet) = slots[s];
            switches[sw]
                .pipelets
                .entry(pipelet)
                .or_default()
                .push(nf.clone());
            cursor = s;
        }
        let mut placement = ClusterPlacement { switches };
        for p in &mut placement.switches {
            *p = t.canonicalize(std::mem::take(p));
        }
        Ok(placement)
    }

    /// Returns a copy of the problem with chain weights (the assumed
    /// traffic matrix) replaced. `weights` is indexed like
    /// `chains().chains`; missing entries keep their old weight.
    pub fn with_weights(&self, weights: &[f64]) -> FleetProblem {
        let mut out = self.clone();
        for (chain, w) in out
            .cluster
            .template
            .chains
            .chains
            .iter_mut()
            .zip(weights.iter())
        {
            chain.weight = *w;
        }
        out
    }

    /// The per-switch traffic shares this placement predicts under the
    /// assumed matrix: every packet enters at member 0 and transits every
    /// member up to the furthest one its chain visits, so switch `s`
    /// carries the weight of every chain whose reach is ≥ `s`. Normalized
    /// to sum to 1 — the baseline the
    /// [`ShiftDetector`](crate::orchestrator::ShiftDetector) compares
    /// observed per-switch packet deltas against.
    pub fn expected_switch_shares(
        &self,
        placement: &ClusterPlacement,
    ) -> Result<Vec<f64>, PlacementError> {
        let mut shares = vec![0.0; self.cluster.cluster_size];
        for chain in &self.chains().chains {
            let reach = self.chain_reach(chain, placement)?;
            for share in shares.iter_mut().take(reach + 1) {
                *share += chain.weight;
            }
        }
        let total: f64 = shares.iter().sum();
        if total > 0.0 {
            for s in &mut shares {
                *s /= total;
            }
        }
        Ok(shares)
    }

    /// The furthest member a chain's packets visit under `placement`.
    pub fn chain_reach(
        &self,
        chain: &ChainPolicy,
        placement: &ClusterPlacement,
    ) -> Result<usize, PlacementError> {
        chain
            .nfs
            .iter()
            .map(|nf| {
                placement
                    .switch_of(nf)
                    .ok_or_else(|| PlacementError::UnplacedNf(nf.clone()))
            })
            .try_fold(0usize, |acc, sw| sw.map(|sw| acc.max(sw)))
    }

    /// A reproducible synthetic fleet for scale tests and benches:
    /// `n_chains` chains drawn as increasing subsequences of a shared NF
    /// universe (so a monotone placement exists for every chain
    /// simultaneously), with randomized stage demands and traffic weights.
    pub fn synthetic(n_chains: usize, n_switches: usize, seed: u64) -> FleetProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_nfs = (3 * n_switches).max(8);
        let names: Vec<String> = (0..n_nfs).map(|i| format!("nf{i:03}")).collect();
        let mut stages = BTreeMap::new();
        for n in &names {
            stages.insert(n.clone(), rng.gen_range(1..4) as u32);
        }
        let mut chains = Vec::new();
        for c in 0..n_chains {
            let want = rng.gen_range(2..=4usize);
            let mut idx: Vec<usize> = (0..want).map(|_| rng.gen_range(0..n_nfs)).collect();
            idx.sort_unstable();
            idx.dedup();
            let nfs: Vec<&str> = idx.iter().map(|i| names[*i].as_str()).collect();
            let weight = rng.gen_range(5..20) as f64 / 10.0;
            chains.push(ChainPolicy::new(
                (c + 1) as u16,
                format!("chain{c:03}"),
                nfs,
                weight,
            ));
        }
        let template = PlacementProblem::new(
            ChainSet::new(chains).expect("synthetic chains valid"),
            stages,
        );
        FleetProblem::new(ClusterProblem::new(template, n_switches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_problem() -> PlacementProblem {
        // Ten NFs of 4 stages each: too big for one 2-pipeline/12-stage
        // switch (surrogate: per-pipelet 12 stages, 4 pipelets, framework
        // overhead 2/NF + 1/pipelet).
        let nfs: Vec<String> = (0..10).map(|i| format!("N{i}")).collect();
        let chains = ChainSet::new(vec![ChainPolicy {
            path_id: 1,
            name: "long".into(),
            nfs: nfs.clone(),
            weight: 1.0,
        }])
        .unwrap();
        let stages: BTreeMap<String, u32> = nfs.iter().map(|n| (n.clone(), 4u32)).collect();
        PlacementProblem::new(chains, stages)
    }

    #[test]
    fn long_chain_spills_to_second_switch() {
        let problem = ClusterProblem::new(big_problem(), 3);
        let placement = problem.greedy_spill().unwrap();
        // At least two switches used.
        let used = placement
            .switches
            .iter()
            .filter(|p| p.pipelets.values().any(|v| !v.is_empty()))
            .count();
        assert!(used >= 2, "expected spill, used {used} switches");
        // Every NF placed exactly once.
        for i in 0..10 {
            assert!(placement.switch_of(&format!("N{i}")).is_some());
        }
    }

    #[test]
    fn cluster_cost_counts_hops() {
        let problem = ClusterProblem::new(big_problem(), 3);
        let placement = problem.greedy_spill().unwrap();
        let cost = problem
            .chain_cost(&problem.template.chains.chains[0], &placement)
            .unwrap();
        // Chain order follows cluster order → hops = used switches − 1.
        let used = placement
            .switches
            .iter()
            .filter(|p| p.pipelets.values().any(|v| !v.is_empty()))
            .count();
        assert_eq!(cost.inter_switch_hops as usize, used - 1);
    }

    #[test]
    fn too_small_cluster_is_infeasible() {
        let problem = ClusterProblem::new(big_problem(), 1);
        assert!(matches!(
            problem.greedy_spill().unwrap_err(),
            PlacementError::Infeasible(_)
        ));
    }

    #[test]
    fn off_chip_hops_cost_more_latency_than_recircs() {
        let t = TimingModel::tofino();
        let on_chip = ClusterCost {
            recirculations: 1,
            ..Default::default()
        };
        let off_chip = ClusterCost {
            inter_switch_hops: 1,
            ..Default::default()
        };
        assert!(off_chip.loop_latency_ns(&t) > on_chip.loop_latency_ns(&t));
        // ≈2× per the paper's takeaway 3.
        let ratio = off_chip.loop_latency_ns(&t) / on_chip.loop_latency_ns(&t);
        assert!((ratio - 145.0 / 75.0).abs() < 1e-9);
    }

    #[test]
    fn backward_transitions_cost_double() {
        // Chain visiting switch order 0 → 1 → 0: 1 forward hop + 2 backward.
        let mut template = big_problem();
        template.chains = ChainSet::new(vec![ChainPolicy::new(
            1,
            "zigzag",
            vec!["N0", "N1", "N2"],
            1.0,
        )])
        .unwrap();
        let problem = ClusterProblem::new(template, 2);
        let placement = ClusterPlacement {
            switches: vec![
                Placement::sequential(vec![(dejavu_asic::PipeletId::ingress(0), vec!["N0", "N2"])]),
                Placement::sequential(vec![(dejavu_asic::PipeletId::ingress(0), vec!["N1"])]),
            ],
        };
        let cost = problem
            .chain_cost(&problem.template.chains.chains[0], &placement)
            .unwrap();
        assert_eq!(cost.inter_switch_hops, 3);
    }

    #[test]
    fn latency_estimator_monotone_in_hops() {
        let t = TimingModel::tofino();
        let base = chain_latency_ns(&ClusterCost::default(), 2, 12, &t);
        let hop = chain_latency_ns(
            &ClusterCost {
                inter_switch_hops: 1,
                ..Default::default()
            },
            2,
            12,
            &t,
        );
        assert!(hop > base);
        assert!((hop - base - 145.0).abs() < 1e-9);
    }
}
