//! Interned metro symbols.
//!
//! Every world — hand-built or generated — places PoPs in the same sixteen
//! metros the compiler knows coordinates for ([`crate::compile::metro_info`]).
//! Historically the worlds spelled those metros as raw string literals, which
//! meant a typo ("nye") only surfaced as a compile-time `UnknownMetro` error
//! deep inside `compile()`. The interner gives each metro a dense stable id:
//! world builders hold `MetroId`s (one byte each, `Copy`, comparable), and
//! resolve them to the canonical `&'static str` code only at the
//! `AsGraph`/`compile()` boundary.
//!
//! The id space is closed: [`MetroId::ALL`] is the full metro universe, in
//! the same order as the compiler's coordinate table, so ids double as
//! indices into per-metro arrays.

/// Dense identifier of one metro; index into [`METRO_CODES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetroId(pub u8);

/// Canonical metro codes, in the compiler's coordinate-table order.
pub const METRO_CODES: &[&str] = &[
    "nyc", "bos", "ash", "atl", "mia", "chi", "dfw", "hou", "den", "phx", "lax", "sjc", "sea",
    "lon", "fra", "ams",
];

/// Named ids for the worlds that spell metros in source.
pub mod metros {
    use super::MetroId;
    pub const NYC: MetroId = MetroId(0);
    pub const BOS: MetroId = MetroId(1);
    pub const ASH: MetroId = MetroId(2);
    pub const ATL: MetroId = MetroId(3);
    pub const MIA: MetroId = MetroId(4);
    pub const CHI: MetroId = MetroId(5);
    pub const DFW: MetroId = MetroId(6);
    pub const HOU: MetroId = MetroId(7);
    pub const DEN: MetroId = MetroId(8);
    pub const PHX: MetroId = MetroId(9);
    pub const LAX: MetroId = MetroId(10);
    pub const SJC: MetroId = MetroId(11);
    pub const SEA: MetroId = MetroId(12);
    pub const LON: MetroId = MetroId(13);
    pub const FRA: MetroId = MetroId(14);
    pub const AMS: MetroId = MetroId(15);
}

impl MetroId {
    /// Every metro, in id order.
    pub const ALL: std::ops::Range<u8> = 0..METRO_CODES.len() as u8;

    /// The canonical code ("nyc", "sjc", ...).
    pub fn code(self) -> &'static str {
        METRO_CODES[self.0 as usize]
    }

    /// Standard-time UTC offset of the metro.
    pub fn tz(self) -> i8 {
        crate::compile::metro_info(self.code()).2
    }
}

/// Intern a metro code; `None` for codes the compiler has no coordinates for.
pub fn intern_metro(code: &str) -> Option<MetroId> {
    METRO_CODES
        .iter()
        .position(|c| *c == code)
        .map(|i| MetroId(i as u8))
}

/// Resolve a slice of ids to owned code strings — the shape
/// `AsInfo::pops` wants.
pub fn codes(ids: &[MetroId]) -> Vec<String> {
    ids.iter().map(|m| m.code().to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::try_metro_info;

    #[test]
    fn every_symbol_resolves_in_the_compiler_table() {
        for i in MetroId::ALL {
            let id = MetroId(i);
            assert!(try_metro_info(id.code()).is_ok(), "metro {}", id.code());
        }
    }

    #[test]
    fn interner_round_trips() {
        for i in MetroId::ALL {
            let id = MetroId(i);
            assert_eq!(intern_metro(id.code()), Some(id));
        }
        assert_eq!(intern_metro("zzz"), None);
    }

    #[test]
    fn named_ids_match_codes() {
        assert_eq!(metros::NYC.code(), "nyc");
        assert_eq!(metros::SJC.code(), "sjc");
        assert_eq!(metros::AMS.code(), "ams");
        assert_eq!(metros::NYC.tz(), -5);
        assert_eq!(metros::SJC.tz(), -8);
    }
}
