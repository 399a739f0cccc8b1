//! Embedded tagged time-series store.
//!
//! The production system described in the paper stores all measurements in
//! InfluxDB and visualizes them through Grafana (§3, Figure 1). For a
//! self-contained reproduction we implement the part of that stack the
//! pipeline actually depends on:
//!
//! * tagged series — a measurement name plus a sorted tag set identifies a
//!   series (`tslp, vp=ark-bed-us, link=L17, end=far`);
//! * append-mostly ingestion of `(timestamp, f64)` points, journaled to a
//!   write-ahead log and checkpointed as WAL-format segments;
//! * range queries and bin downsampling (`min` per 5/15-minute bin is the
//!   pre-processing step of both inference algorithms, §4.1/§4.2);
//! * Grafana-style JSON export (the public-data release story of §1's
//!   contribution 4). There is no retention: a store keeps every point of
//!   its run.
//!
//! The store is striped over `std::sync::RwLock`-guarded shards, each a
//! key → index map over a vector of entries: a key's points and quality
//! windows share one entry, so a write or an annotation is one hash lookup
//! under one lock — or none, through a [`SeriesSlot`] resolved once — and
//! concurrent measurement threads can ingest while analysis reads.

pub mod key;
pub mod lineproto;
mod obs;
pub mod quality;
pub mod segment;
pub mod series;
pub mod store;
pub mod wal;

pub use key::{SeriesKey, TagSet};
pub use lineproto::{format_key, parse_key, LineProtoError};
pub use quality::{QualityFlags, QualityLog};
pub use series::{Aggregate, Point, Series};
pub use store::{recommended_shards, SeriesSlot, Store, TagFilter};
pub use wal::{FsyncPolicy, ReplayReport, Wal, WalCodecError, WalPosition, WalRecord};
pub use wal::{replay_dir_range, replay_segment_file_with};
