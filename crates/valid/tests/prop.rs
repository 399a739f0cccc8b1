//! Property-based tests for the validation models.

use manic_netsim::time::datetime_to_sim;
use manic_netsim::time::Date;
use manic_netsim::topo::Direction;
use manic_netsim::LinkId;
use manic_probing::VpHandle;
use manic_scenario::worlds::{toy, toy_asns};
use manic_stats::ttest::Tails;
use manic_valid::lossval::{classify_month_links, LossValInput};
use manic_valid::tcpmodel::{path_throughput_mbps, TcpModelConfig};
use manic_valid::{run_ndt, run_youtube_test, NdtServer, YoutubeConfig};
use proptest::prelude::*;

fn data_path(w: &manic_scenario::World) -> Vec<(LinkId, Direction)> {
    let vp = w.vp("acme-nyc");
    let host = w.host_routers[&toy_asns::CDNCO];
    w.net
        .forward_path(host, vp.addr, 3, 0)
        .iter()
        .map(|h| (h.link, h.direction))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TCP throughput is positive, finite, and non-increasing in RTT.
    #[test]
    fn throughput_monotone_in_rtt(
        rtt1 in 1.0f64..500.0,
        rtt2 in 1.0f64..500.0,
        hour in 0i64..24,
    ) {
        let w = toy(1);
        let links = data_path(&w);
        let t = datetime_to_sim(Date::new(2016, 6, 7), hour as u8, 0, 0);
        let cfg = TcpModelConfig::default();
        let (lo, hi) = if rtt1 <= rtt2 { (rtt1, rtt2) } else { (rtt2, rtt1) };
        let fast = path_throughput_mbps(&w.net, &links, lo, t, &cfg);
        let slow = path_throughput_mbps(&w.net, &links, hi, t, &cfg);
        prop_assert!(fast.is_finite() && fast > 0.0);
        prop_assert!(slow <= fast * 1.0001, "rtt {lo}->{hi}: {fast} -> {slow}");
    }

    /// Longer tests amortize slow-start: throughput non-decreasing in
    /// duration.
    #[test]
    fn throughput_monotone_in_duration(d1 in 1.0f64..120.0, d2 in 1.0f64..120.0) {
        let w = toy(1);
        let links = data_path(&w);
        let t = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let short = path_throughput_mbps(&w.net, &links, 30.0, t, &TcpModelConfig { duration_s: lo, ..Default::default() });
        let long = path_throughput_mbps(&w.net, &links, 30.0, t, &TcpModelConfig { duration_s: hi, ..Default::default() });
        prop_assert!(long >= short * 0.9999);
    }

    /// NDT and the streaming test read one flow path: against the same
    /// host, at any instant and flow, both see the same forward links and
    /// the same RTT, which covers the propagation delay both ways and is at
    /// least 0.5 ms; a host nothing routes to yields no test.
    #[test]
    fn ndt_and_youtube_share_the_flow_path(day in 1u8..29, hour in 0u8..24, flow in any::<u16>()) {
        let w = toy(1);
        let vp = w.vp("acme-nyc");
        let vp = VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr };
        let (asn, t) = (toy_asns::CDNCO, datetime_to_sim(Date::new(2016, 6, day), hour, 0, 0));
        let (addr, router) = (w.host_addr(asn, 7), w.host_routers[&asn]);
        let server = NdtServer { name: "cdn".into(), asn, addr, router };
        let tcp = TcpModelConfig::default();
        let ndt = run_ndt(&w.net, &vp, &server, t, flow, &tcp).expect("routable");
        let cfg = YoutubeConfig::default();
        let yt = run_youtube_test(&w.net, &vp, addr, router, t, flow, &cfg).expect("routable");
        prop_assert_eq!(&ndt.forward_links, &yt.forward_links);
        let links = ndt.forward_links.iter().chain(&ndt.reverse_links);
        let prop_ms: f64 = links.map(|&(l, _)| w.net.topo.link(l).prop_delay_ms).sum();
        prop_assert!(ndt.rtt_ms >= prop_ms.max(0.5) - 1e-9, "rtt {} < {}", ndt.rtt_ms, prop_ms);
        // Startup: two round trips, then the media buffer at the ON rate.
        let buffer_s = cfg.bitrate_mbps * cfg.startup_buffer_s / yt.on_throughput_mbps;
        prop_assert!((yt.startup_delay_s - buffer_s - 2.0 * ndt.rtt_ms / 1000.0).abs() < 1e-9);
        let nowhere = NdtServer { addr: "172.16.0.1".parse().unwrap(), ..server };
        prop_assert!(run_ndt(&w.net, &vp, &nowhere, t, flow, &tcp).is_none());
        prop_assert!(run_youtube_test(&w.net, &vp, nowhere.addr, router, t, flow, &cfg).is_none());
    }

    /// The Table 1 classifier is exhaustive and consistent: every
    /// significant month-link lands in exactly one row, and the row
    /// percentages sum to 100%.
    #[test]
    fn table1_rows_partition_significant_monthlinks(
        inputs in prop::collection::vec(
            (0u64..200, 1_000u64..100_000, 0u64..200, 1_000u64..100_000, 0u64..200),
            1..12,
        ),
    ) {
        let mls: Vec<LossValInput> = inputs
            .iter()
            .enumerate()
            .map(|(i, &(fc, fct, fu, fut, nc))| LossValInput {
                vp: format!("vp{i}"),
                link_label: format!("L{i}"),
                month: 14,
                significantly_congested: true,
                far_congested: (fc.min(fct), fct),
                far_uncongested: (fu.min(fut), fut),
                near_congested: (nc.min(fct), fct),
                near_uncongested: (0, fut),
            })
            .collect();
        let t = classify_month_links(&mls, 0.05);
        prop_assert_eq!(t.both + t.far_only + t.contradicting, t.significant);
        prop_assert!(t.significant <= t.candidates);
        if t.significant > 0 {
            let total = t.pct_both() + t.pct_far_only() + t.pct_contradicting();
            prop_assert!((total - 100.0).abs() < 1e-6, "total {total}");
        }
        prop_assert_eq!(t.rows.len(), t.significant);
    }

    /// The classifier is insensitive to month-link order.
    #[test]
    fn table1_order_invariant(
        inputs in prop::collection::vec(
            (0u64..500, 10_000u64..50_000, 0u64..500),
            2..8,
        ),
    ) {
        let mls: Vec<LossValInput> = inputs
            .iter()
            .enumerate()
            .map(|(i, &(fc, n, nc))| LossValInput {
                vp: format!("vp{i}"),
                link_label: format!("L{i}"),
                month: 15,
                significantly_congested: true,
                far_congested: (fc.min(n), n),
                far_uncongested: (50, 5 * n),
                near_congested: (nc.min(n), n),
                near_uncongested: (10, 5 * n),
            })
            .collect();
        let fwd = classify_month_links(&mls, 0.05);
        let mut rev = mls.clone();
        rev.reverse();
        let bwd = classify_month_links(&rev, 0.05);
        prop_assert_eq!(fwd.both, bwd.both);
        prop_assert_eq!(fwd.far_only, bwd.far_only);
        prop_assert_eq!(fwd.contradicting, bwd.contradicting);
    }

    /// Sanity link between the stats layer and the classifier: a one-sided
    /// significance in the far-end test implies the two-sided filter also
    /// fired (alpha doubling).
    #[test]
    fn far_test_implies_twosided_filter(
        fc in 0u64..2_000, fu in 0u64..2_000,
    ) {
        let n = 100_000u64;
        let one = manic_stats::two_proportion_z_test(fc, n, fu, 5 * n, Tails::Greater);
        let two = manic_stats::two_proportion_z_test(fc, n, fu, 5 * n, Tails::TwoSided);
        if let (Some(o), Some(t)) = (one, two) {
            if o.significant(0.025) {
                prop_assert!(t.significant(0.05));
            }
        }
    }
}
