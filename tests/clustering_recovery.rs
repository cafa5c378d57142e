//! Integration: the §7 unsupervised pipeline rediscovers the planted
//! coordinated campaigns — Shadowserver, the unknown scanners, the ADB
//! worm — from traffic alone.

use darkvec::config::DarkVecConfig;
use darkvec::inspect::profile_clusters;
use darkvec::pipeline::{self, TrainedModel};
use darkvec::unsupervised::{
    cluster_embedding, dominant_labels, k_sweep, ClusterConfig, Clustering,
};
use darkvec_gen::{simulate, CampaignId, SimConfig, SimOutput};
use darkvec_types::{Ipv4, PortKey};
use std::collections::HashMap;
use std::sync::OnceLock;

const SEED: u64 = 2002;

fn fixture() -> &'static (SimOutput, TrainedModel, Clustering) {
    static FIXTURE: OnceLock<(SimOutput, TrainedModel, Clustering)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sim = simulate(&SimConfig::tiny(SEED));
        // One trainer thread: the assertions below are about the trained
        // geometry, and Hogwild across cores makes it depend on thread
        // interleaving.
        let mut cfg = DarkVecConfig::test_size(SEED);
        cfg.w2v.threads = 1;
        let model = pipeline::run(&sim.trace, &cfg);
        let clustering = cluster_embedding(
            &model.embedding,
            &ClusterConfig {
                k: 3,
                seed: SEED,
                threads: 0,
                ..Default::default()
            },
        );
        (sim, model, clustering)
    })
}

fn campaign_map(sim: &SimOutput) -> HashMap<Ipv4, CampaignId> {
    sim.trace
        .senders()
        .into_iter()
        .filter_map(|ip| sim.truth.campaign(ip).map(|c| (ip, c)))
        .collect()
}

/// Campaigns that must each dominate at least one discovered cluster.
const MUST_RECOVER: &[CampaignId] = &[
    CampaignId::EnginUmich,
    CampaignId::U1NetBios,
    CampaignId::U3Smb,
    CampaignId::U4AdbWorm,
    CampaignId::U7Horizontal,
    CampaignId::U8Horizontal,
];

#[test]
fn coordinated_campaigns_dominate_clusters() {
    let (sim, model, clustering) = fixture();
    let truth = campaign_map(sim);
    let dominants = dominant_labels(clustering, &model.embedding, &truth);
    let sizes = clustering.sizes();

    let mut recovered: HashMap<CampaignId, (usize, f64)> = HashMap::new();
    for (c, dom) in dominants.iter().enumerate() {
        if let Some((campaign, purity)) = dom {
            if *purity >= 0.5 && sizes[c] >= 4 {
                let e = recovered.entry(*campaign).or_insert((0, 0.0));
                e.0 += sizes[c];
                e.1 = e.1.max(*purity);
            }
        }
    }
    let mut missing = Vec::new();
    for want in MUST_RECOVER {
        if !recovered.contains_key(want) {
            missing.push(*want);
        }
    }
    assert!(
        missing.is_empty(),
        "campaigns without a dominated cluster: {missing:?}; recovered: {recovered:?}"
    );
}

#[test]
fn netbios_cluster_shows_single_subnet_evidence() {
    // unknown1's fingerprint in the paper: one /24, 137/udp-heavy,
    // very regular. The discovered cluster must show the same evidence.
    let (sim, model, clustering) = fixture();
    let truth = campaign_map(sim);
    let dominants = dominant_labels(clustering, &model.embedding, &truth);
    let profiles = profile_clusters(&sim.trace, &model.embedding, clustering);

    let p = profiles
        .iter()
        .zip(&dominants)
        .filter(|(p, d)| {
            matches!(d, Some((CampaignId::U1NetBios, purity)) if *purity >= 0.5) && p.ips >= 4
        })
        .map(|(p, _)| p)
        .max_by_key(|p| p.ips)
        .expect("a NetBIOS-dominated cluster");
    assert_eq!(p.subnets24, 1, "unknown1 lives in a single /24");
    let (top_key, share) = p.top_ports[0];
    assert_eq!(top_key, PortKey::udp(137));
    assert!(share > 0.4, "NetBIOS share {share}");
}

#[test]
fn adb_worm_cluster_ramps_up() {
    let (sim, model, clustering) = fixture();
    let truth = campaign_map(sim);
    let dominants = dominant_labels(clustering, &model.embedding, &truth);
    let members = clustering.members(&model.embedding);

    // Union of members of worm-dominated clusters.
    let mut worm_ips: Vec<Ipv4> = Vec::new();
    for (c, dom) in dominants.iter().enumerate() {
        if matches!(dom, Some((CampaignId::U4AdbWorm, purity)) if *purity >= 0.5) {
            worm_ips.extend(&members[c]);
        }
    }
    assert!(worm_ips.len() >= 4, "no worm cluster found");
    let set: std::collections::HashSet<Ipv4> = worm_ips.into_iter().collect();
    let days = sim.trace.days();
    let count_in = |lo: u64, hi: u64| -> usize {
        (lo..hi)
            .map(|d| {
                sim.trace
                    .day_slice(d)
                    .iter()
                    .filter(|p| set.contains(&p.src))
                    .count()
            })
            .sum()
    };
    let first_half = count_in(0, days / 2);
    let second_half = count_in(days / 2, days);
    assert!(
        second_half > first_half,
        "worm cluster should grow: {first_half} then {second_half}"
    );
}

#[test]
fn modularity_is_high_and_k1_fragments() {
    let (_, model, clustering) = fixture();
    assert!(
        clustering.modularity > 0.5,
        "k'=3 modularity {:.3} too low",
        clustering.modularity
    );
    // Figure 10's fragmentation regime.
    let points = k_sweep(&model.embedding, &[1, 3], SEED, 0);
    assert!(
        points[0].clusters > points[1].clusters,
        "k'=1 ({} clusters) must fragment more than k'=3 ({})",
        points[0].clusters,
        points[1].clusters
    );
}

#[test]
fn more_than_half_the_big_clusters_have_good_silhouette() {
    // Figure 11: "More than half of the clusters have silhouettes higher
    // than 0.5".
    let (_, _, clustering) = fixture();
    let sizes = clustering.sizes();
    let big: Vec<usize> = (0..clustering.clusters)
        .filter(|&c| sizes[c] >= 4)
        .collect();
    assert!(!big.is_empty());
    let good = big
        .iter()
        .filter(|&&c| clustering.silhouettes[c] > 0.5)
        .count();
    assert!(
        good * 3 >= big.len(),
        "only {good}/{} sizeable clusters exceed silhouette 0.5",
        big.len()
    );
}
