//! Border mapping: inferring the interdomain links of the network hosting a
//! vantage point, at IP-link granularity.
//!
//! This is a from-scratch implementation of the role bdrmap [Luckie et al.,
//! IMC 2016] plays in the paper's system (§3.2). Inputs are exactly the
//! production inputs: traceroutes from the VP toward every routed prefix, a
//! prefix-to-AS table, AS relationships, an IXP prefix list, and the sibling
//! set of the host network; alias resolution (Ally) is consulted through a
//! caller-supplied oracle so the algorithm itself stays a pure function of
//! measurements.
//!
//! The central difficulty the heuristics address: the address a far border
//! router answers from frequently belongs to the *near* network, because
//! interdomain /30s are numbered from one side's space (the provider's, by
//! convention). A naive "last hop with a host-network address" rule
//! therefore overshoots the border by one hop. See [`infer::infer`] for the rules.

pub mod annotate;
pub mod infer;

pub use annotate::{annotate, HopAnnotation, HopOwner};
pub use infer::{infer, AliasOracle, BdrmapResult, InferredLink};
