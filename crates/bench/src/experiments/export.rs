//! Public-data export (contribution 4: "we are publicly releasing our
//! analysis scripts, and the underlying datasets"): dump the US world's
//! AS-level metadata, interdomain-link ground truth, and the bdrmap input
//! artifacts as JSON under `results/world.json`.

use manic_scenario::asgraph::AsKind;
use manic_scenario::worlds::us_broadband;

pub fn run() -> String {
    let w = us_broadband(crate::SEED);
    let ases: Vec<serde_json::Value> = w
        .graph
        .ases()
        .map(|a| {
            serde_json::json!({
                "asn": a.asn.0,
                "name": a.name,
                "kind": match a.kind {
                    AsKind::AccessIsp => "access",
                    AsKind::Transit => "transit",
                    AsKind::Content => "content",
                    AsKind::Stub => "stub",
                    AsKind::Ixp => "ixp",
                },
                "org": a.org,
                "pops": a.pops,
                "block": w.addressing.of(a.asn).block.to_string(),
            })
        })
        .collect();
    let links: Vec<serde_json::Value> = w
        .gt_links
        .iter()
        .map(|l| {
            serde_json::json!({
                "a_asn": l.a_asn.0,
                "b_asn": l.b_asn.0,
                "a_ext": l.a_ext.to_string(),
                "b_ext": l.b_ext.to_string(),
                "a_int": l.a_int.to_string(),
                "b_int": l.b_int.to_string(),
                "metro": l.a_metro,
                "via_ixp": l.via_ixp,
            })
        })
        .collect();
    let vps: Vec<serde_json::Value> = w
        .vps
        .iter()
        .map(|v| {
            serde_json::json!({
                "name": v.name,
                "asn": v.asn.0,
                "pop": v.pop,
                "addr": v.addr.to_string(),
            })
        })
        .collect();
    let relationships: Vec<serde_json::Value> = w
        .artifacts
        .c2p
        .iter()
        .map(|(c, p)| serde_json::json!({"customer": c.0, "provider": p.0}))
        .chain(
            w.artifacts
                .p2p
                .iter()
                .map(|(a, b)| serde_json::json!({"peer_a": a.0, "peer_b": b.0})),
        )
        .collect();
    let doc = serde_json::json!({
        "description": "manic-rs US-broadband world (synthetic; addresses are RFC1918)",
        "seed": crate::SEED,
        "ases": ases,
        "interdomain_links": links,
        "vantage_points": vps,
        "relationships": relationships,
        "ixp_prefixes": w.artifacts.ixp_prefixes.iter().map(|p| p.to_string()).collect::<Vec<_>>(),
    });
    serde_json::to_string_pretty(&doc).expect("serializable")
}
