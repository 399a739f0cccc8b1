//! Experiment regenerators, one per paper table/figure, survey, ablation and
//! data export; `all_experiments <id>` runs them (see DESIGN.md's experiment
//! index and EXPERIMENTS.md for paper-vs-measured records).

pub mod ablation_autocorr;
pub mod ablation_levelshift;
pub mod asymmetry;
pub mod export;
pub mod fig3;
pub mod longitudinal;
pub mod ndt;
pub mod operator;
pub mod response_rates;
pub mod table1;
pub mod whatif;
pub mod youtube;
