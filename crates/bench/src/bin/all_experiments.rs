//! Regenerate the paper artifacts under `results/`.
//!
//! ```text
//! cargo run --release -p manic-bench --bin all_experiments [<id> ...]
//! ```
//!
//! Each id writes `results/<id>.txt` (`export_world` writes
//! `results/world.json`); no ids runs every one. An id whose computation
//! also yields a sibling artifact writes it too: fig4/fig5 share one
//! YouTube run and fig9 writes its link-local-time companion. The §6 study
//! and the YouTube run happen at most once per process. An unknown id
//! prints the id list and exits 2.

use manic_analysis::Study;
use manic_bench::experiments::{self as exp, longitudinal as l};
use manic_core::{LongitudinalOutput, System};

/// (id, result file under `results/`, section title, body).
type Entry<Body> = (&'static str, &'static str, &'static str, Body);
type StudyBody = fn(&Study, &LongitudinalOutput, &System) -> String;

/// The §6 longitudinal family, all read off one US study run.
const STUDY: [Entry<StudyBody>; 7] = [
    ("table3_overview", "table3_overview", "Table 3", |s, _, sys| l::run_table3(s, &sys.world)),
    ("census", "census", "Census (sec. 6 intro)", |s, _, sys| l::run_census(s, sys)),
    ("table4_matrix", "table4_matrix", "Table 4", |s, _, sys| l::run_table4(s, &sys.world)),
    ("fig7_temporal", "fig7_temporal", "Figure 7", |s, _, _| l::run_fig7(s)),
    ("fig8_degree", "fig8_degree", "Figure 8", |s, _, _| l::run_fig8(s)),
    ("fig9_comcast_hours", "fig9_comcast_hours", "Figure 9", |_, d, _| l::run_fig9(d)),
    (
        "fig9_comcast_hours",
        "fig9_link_time",
        "Figure 9 companion (link-local time)",
        |_, d, sys| l::run_fig9_link_time(d, &sys.world),
    ),
];

/// Figures 4 and 5 come out of one YouTube run: (id, title).
const YOUTUBE: [(&str, &str); 2] = [("fig4_youtube_cdfs", "Figure 4"), ("fig5_failure_rates", "Figure 5")];

/// Experiments that share nothing.
const SINGLE: [Entry<fn() -> String>; 11] = [
    ("fig3_timeseries", "fig3_timeseries", "Figure 3", exp::fig3::run),
    ("table2_ndt", "table2_ndt", "Table 2", exp::ndt::run),
    ("fig6_ndt_timeseries", "fig6_ndt_timeseries", "Figure 6", exp::ndt::run_fig6),
    ("table1_loss_validation", "table1_loss_validation", "Table 1", exp::table1::run),
    ("sec54_operator_validation", "sec54_operator_validation", "Section 5.4", exp::operator::run),
    ("response_rates", "response_rates", "TSLP response rates (sec. 3.2)", exp::response_rates::run),
    ("asymmetry_survey", "asymmetry_survey", "Asymmetry survey (sec. 7)", exp::asymmetry::run),
    ("ablation_autocorr", "ablation_autocorr", "Ablation: autocorrelation", exp::ablation_autocorr::run),
    ("ablation_levelshift", "ablation_levelshift", "Ablation: level shift", exp::ablation_levelshift::run),
    ("whatif_upgrade", "whatif_upgrade", "What-if: capacity upgrade (sec. 8)", exp::whatif::run),
    ("export_world", "world.json", "Public data export", exp::export::run),
];

fn section(title: &str, file: &str, body: &str) {
    println!("\n================================================================");
    println!("== {title}");
    println!("================================================================\n");
    if !file.ends_with(".json") {
        println!("{body}");
    }
    manic_bench::save_result(file, body);
}

fn main() {
    let mut ids: Vec<&str> = STUDY.iter().map(|e| e.0).collect();
    ids.dedup();
    ids.extend(YOUTUBE.iter().map(|e| e.0));
    ids.extend(SINGLE.iter().map(|e| e.0));

    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| !ids.contains(&a.as_str())) {
        eprintln!("all_experiments: unknown id {bad:?}; ids are:");
        for id in &ids {
            eprintln!("  {id}");
        }
        std::process::exit(2);
    }
    let wanted = |id: &str| args.is_empty() || args.iter().any(|a| a == id);

    if STUDY.iter().any(|e| wanted(e.0)) {
        let mut sys = manic_bench::us_system();
        let (study, data) = manic_bench::run_us_study(&mut sys);
        for (id, file, title, body) in STUDY {
            if wanted(id) {
                section(title, file, &body(&study, &data, &sys));
            }
        }
    }
    if YOUTUBE.iter().any(|e| wanted(e.0)) {
        let (fig4, fig5) = exp::youtube::run();
        for ((id, title), body) in YOUTUBE.into_iter().zip([fig4, fig5]) {
            section(title, id, &body);
        }
    }
    for (id, file, title, body) in SINGLE {
        if wanted(id) {
            section(title, file, &body());
        }
    }
    println!("\nDone; outputs saved under results/.");
}
