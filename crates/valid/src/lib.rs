//! Validation measurements (§3.4, §3.5, §5).
//!
//! The paper cross-checks TSLP congestion inferences against three
//! independent, more invasive measurements plus operator ground truth:
//!
//! * [`tcpmodel`] — a steady-state TCP bulk-transfer model shared by the
//!   NDT and YouTube emulations: throughput is the minimum of the
//!   bottleneck residual capacity along the *data* path and the Mathis
//!   loss-limited rate, discounted for slow-start over a 10 s test;
//! * [`ndt`] — NDT-style download/upload throughput tests against servers
//!   hosted in transit networks, with the forward/reverse path distinction
//!   that produced the paper's Link-2 null result (§5.3, Table 2);
//! * [`youtube`] — YouTube-test-style streaming emulation: startup delay
//!   (time to buffer two seconds of media), ON-period throughput, and
//!   failure events (§5.2, Figures 4-5);
//! * [`lossval`] — the month-link loss-rate methodology of §5.1: far-end
//!   and localization binomial tests producing Table 1's three-way split;
//! * [`operator`] — the §5.4 audit: compare inferences with withheld link
//!   utilization (the only component allowed to read simulator ground
//!   truth).

pub mod lossval;
pub mod ndt;
pub mod operator;
pub mod tcpmodel;
pub mod youtube;

pub use lossval::{classify_month_links, LossValInput, Table1, Table1Class};
pub use ndt::{run_ndt, NdtResult, NdtServer};
pub use operator::{audit, AuditOutcome, AuditReport};
pub use tcpmodel::{path_throughput_mbps, Hop};
pub use youtube::{run_youtube_test, YoutubeResult};
