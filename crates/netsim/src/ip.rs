//! IPv4 addresses and prefixes.
//!
//! The simulator hands out addresses from the RFC 1918 10.0.0.0/8 block so a
//! trace accidentally leaking into logs can never be confused with a real
//! Internet address.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address, stored as its 32-bit big-endian integer value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    pub const UNSPECIFIED: Ipv4 = Ipv4(0);

    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(u32::from_be_bytes([a, b, c, d]))
    }

    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// Address parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address or prefix: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for Ipv4 {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for o in &mut octets {
            *o = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| AddrParseError(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(AddrParseError(s.to_string()));
        }
        Ok(Ipv4::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// A CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    addr: Ipv4,
    len: u8,
}

impl Prefix {
    /// Create a prefix; the address is masked to the prefix length so
    /// `10.1.2.3/16` normalizes to `10.1.0.0/16`.
    pub fn new(addr: Ipv4, len: u8) -> Self {
        assert!(len <= 32, "prefix length out of range");
        Prefix { addr: Ipv4(addr.0 & Self::mask(len)), len }
    }

    /// Host route for a single address.
    pub fn host(addr: Ipv4) -> Self {
        Prefix::new(addr, 32)
    }

    pub(crate) fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    pub fn addr(&self) -> Ipv4 {
        self.addr
    }

    /// The mask length; a `/0` is the (non-empty) default route, so there
    /// is deliberately no `is_empty` counterpart.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    pub fn contains(&self, ip: Ipv4) -> bool {
        (ip.0 & Self::mask(self.len)) == self.addr.0
    }

    /// True when `other` is fully inside `self`.
    pub fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// The `i`-th address inside the prefix (panics if out of range).
    pub fn nth(&self, i: u32) -> Ipv4 {
        let size = self.size();
        assert!((i as u64) < size, "address index {i} out of /{} prefix", self.len);
        Ipv4(self.addr.0 + i)
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Prefix {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, l) = s.split_once('/').ok_or_else(|| AddrParseError(s.to_string()))?;
        let addr: Ipv4 = a.parse()?;
        let len: u8 = l.parse().map_err(|_| AddrParseError(s.to_string()))?;
        if len > 32 {
            return Err(AddrParseError(s.to_string()));
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse() {
        let ip: Ipv4 = "10.1.2.3".parse().unwrap();
        assert_eq!(ip, Ipv4::new(10, 1, 2, 3));
        assert_eq!(ip.to_string(), "10.1.2.3");
        assert!("10.1.2".parse::<Ipv4>().is_err());
        assert!("10.1.2.3.4".parse::<Ipv4>().is_err());
        assert!("10.1.2.999".parse::<Ipv4>().is_err());
    }

    #[test]
    fn prefix_normalizes() {
        let p: Prefix = "10.1.2.3/16".parse().unwrap();
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn contains_boundaries() {
        let p: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(p.contains("10.1.0.0".parse().unwrap()));
        assert!(p.contains("10.1.255.255".parse().unwrap()));
        assert!(!p.contains("10.2.0.0".parse().unwrap()));
        let all: Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains("255.255.255.255".parse().unwrap()));
    }

    #[test]
    fn covers_nesting() {
        let p16: Prefix = "10.1.0.0/16".parse().unwrap();
        let p24: Prefix = "10.1.5.0/24".parse().unwrap();
        assert!(p16.covers(&p24));
        assert!(!p24.covers(&p16));
        assert!(p16.covers(&p16));
    }

    #[test]
    fn nth_and_size() {
        let p: Prefix = "10.1.5.0/24".parse().unwrap();
        assert_eq!(p.size(), 256);
        assert_eq!(p.nth(0).to_string(), "10.1.5.0");
        assert_eq!(p.nth(255).to_string(), "10.1.5.255");
        let host = Prefix::host("10.0.0.1".parse().unwrap());
        assert_eq!(host.size(), 1);
        assert!(host.contains("10.0.0.1".parse().unwrap()));
    }

    #[test]
    #[should_panic(expected = "address index")]
    fn nth_out_of_range_panics() {
        let p: Prefix = "10.1.5.0/30".parse().unwrap();
        p.nth(4);
    }
}
