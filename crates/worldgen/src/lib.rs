//! # manic-worldgen
//!
//! Seeded planetary-scale world generation for the congestion-inference
//! stack. The hand-built worlds (`toy`, `us`) exercise the pipeline against
//! a few dozen ASes; the paper's system faced the actual Internet — tens of
//! thousands of networks, a power-law customer-cone hierarchy, IXP fabrics,
//! CDNs flat-peering into the broadband edge, and measurement coverage from
//! hundreds of vantage points. This crate grows worlds of that shape on
//! demand, deterministically, from a `(name, seed)` pair:
//!
//! * [`gen`] — the generator: tier-1 clique, transit band, CDNs, access
//!   ISPs, and a preferential-attachment stub tail, sized by
//!   [`gen::WorldSpec`]. It writes the universe straight into a
//!   `manic_scenario::AsGraph`, the graph the hand-built worlds, the
//!   compiler and BGP use;
//! * [`build`] — the library resolver and *focus compiler*: the ~190-AS
//!   focus universe is compiled to router level through the classic
//!   scenario compiler, whose `manic_scenario::bgp::Routing` is the one
//!   Gao-Rexford router every packet follows; the far tail stays in the
//!   universe graph, unrouted;
//! * [`scenarios`] — the scenario library (steady mix, flash crowds,
//!   maintenance, catchment shifts), each planting machine-checkable
//!   ground truth;
//! * [`fingerprint`] — determinism digests that CI compares across seeds,
//!   machines, and thread counts.

pub mod build;
pub mod fingerprint;
pub mod gen;
pub mod rng;
pub mod scenarios;

pub use build::{
    build_world, build_world_full, compile_world, library_names, spec_for, BuiltWorld,
    WorldError, WorldStats, STUDY_MONTHS,
};
pub use fingerprint::{topology_fingerprint, world_fingerprint};
pub use gen::{generate, Topology, WorldSpec};
pub use scenarios::{library as scenario_library, Planted, Scenario, ScenarioKind};
