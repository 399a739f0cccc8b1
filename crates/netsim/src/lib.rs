//! Deterministic router-level network simulator.
//!
//! This crate is the substrate that stands in for the live Internet in the
//! reproduction of *Inferring Persistent Interdomain Congestion* (SIGCOMM
//! 2018). The paper's measurement machinery — TSLP, bdrmap, loss probing,
//! traceroute — observes only a narrow slice of network behaviour:
//!
//! * which interface IPs answer TTL-limited probes along a path,
//! * round-trip latency to those interfaces, including standing queue delay
//!   on congested links,
//! * probe loss, and its localization to a link,
//! * confounders: ICMP slow-path generation, ICMP rate limiting, per-flow
//!   load balancing (ECMP), asymmetric return paths, routing changes.
//!
//! `manic-netsim` reproduces exactly those observables over an explicit
//! router-level topology with longest-prefix-match forwarding. It is a
//! *hybrid* simulator: probe packets are forwarded hop by hop (packet level),
//! while background traffic is a fluid model — every link carries a demand
//! profile from which utilization, standing queue delay, and loss probability
//! are derived as pure functions of time. Purity matters: any component may
//! ask for a link's state at any instant and get the same answer, which keeps
//! the 22-month longitudinal studies cheap and the whole system reproducible
//! from a single seed.
//!
//! Everything is deterministic. Randomness (probe jitter, loss draws, ICMP
//! slow paths) comes from counter-hashed noise seeded once per simulation.

pub mod fault;
pub mod fib;
pub mod forward;
pub mod icmp;
pub mod ip;
pub mod noise;
pub(crate) mod obs;
pub mod queue;
pub mod time;
pub mod topo;
pub mod traffic;

pub use fault::{FaultEvent, FaultKind, FaultSchedule, FaultScope};
pub use fib::{Fib, FibEntry};
pub use forward::{HopObservation, Network, ProbeRoute, ProbeSpec, ProbeStatus, SimState};
pub use icmp::{IcmpProfile, RateLimiter};
pub use ip::{Ipv4, Prefix};
pub use queue::{LinkState, QueueModel};
pub use time::SimTime;
pub use topo::{AsNumber, IfaceId, Interface, Link, LinkId, LinkKind, Router, RouterId, Topology};
pub use traffic::{DiurnalDemand, LoadModel, MonthScale};
