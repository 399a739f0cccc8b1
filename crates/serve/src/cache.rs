//! LRU response cache keyed on `(path + query, snapshot epoch)`.
//!
//! Timeseries downsampling and explain rendering are the two endpoints
//! whose cost scales with data volume; dashboards poll them with identical
//! parameters every few seconds. Keying the cache on the snapshot epoch
//! makes invalidation free: a publish bumps the epoch, new requests miss,
//! and the stale entries age out through normal LRU pressure — no
//! explicit flush, no stale reads.
//!
//! The cache is bounded two ways: an entry count (lookup-cost bound) and a
//! byte budget (memory bound — entry count alone lets a client cache a few
//! hundred multi-megabyte renders). Resident bytes are exported as the
//! `manic_serve_cache_bytes` gauge, and the overload layer can
//! [`ResponseCache::shrink_to_bytes`] a low watermark when the shed gate
//! closes: under memory pressure the cache is the first thing sacrificed,
//! before any work is refused.

use crate::http::Response;
use std::collections::HashMap;
use std::sync::Mutex;

/// A cached response body (status + content type + shared bytes).
pub type CachedResponse = Response;

/// Per-entry bookkeeping overhead charged on top of key + body bytes
/// (hash-map slot, stamp, response struct).
const ENTRY_OVERHEAD: usize = 96;

/// A server's response-cache capacity, in entries.
pub(crate) const CACHE_ENTRIES: usize = 256;
/// A server's response-cache byte budget (enforced continuously).
pub(crate) const CACHE_MAX_BYTES: usize = 64 * 1024 * 1024;
/// Byte watermark a server's cache is shrunk to when the shed gate closes.
pub(crate) const CACHE_SHED_BYTES: usize = 8 * 1024 * 1024;

struct Inner {
    map: HashMap<(String, u64), (u64, CachedResponse)>,
    /// Monotone access stamp for LRU ordering.
    stamp: u64,
    /// Approximate resident bytes across entries (keys + bodies + overhead).
    bytes: usize,
}

impl Inner {
    fn entry_cost(key: &str, resp: &CachedResponse) -> usize {
        key.len() + resp.body.len() + ENTRY_OVERHEAD
    }

    /// Remove the coldest entry; `false` when empty.
    fn evict_oldest(&mut self) -> bool {
        let Some(oldest) = self.map.iter().min_by_key(|(_, (s, _))| *s).map(|(k, _)| k.clone())
        else {
            return false;
        };
        if let Some((_, resp)) = self.map.remove(&oldest) {
            self.bytes = self.bytes.saturating_sub(Self::entry_cost(&oldest.0, &resp));
        }
        true
    }
}

/// Bounded LRU of rendered responses. Eviction scans for the oldest stamp
/// — O(capacity), fine for the intended tens-to-hundreds of entries (the
/// capacity bounds memory, not lookup cost).
pub struct ResponseCache {
    inner: Mutex<Inner>,
    cap: usize,
    max_bytes: usize,
}

impl ResponseCache {
    /// Bound by entry count *and* resident bytes. `max_bytes == 0` disables
    /// the byte budget.
    pub fn with_limits(cap: usize, max_bytes: usize) -> Self {
        ResponseCache {
            inner: Mutex::new(Inner { map: HashMap::new(), stamp: 0, bytes: 0 }),
            cap: cap.max(1),
            max_bytes,
        }
    }

    pub fn get(&self, path_query: &str, epoch: u64) -> Option<CachedResponse> {
        let mut inner = self.inner.lock().unwrap();
        inner.stamp += 1;
        let stamp = inner.stamp;
        let hit = inner.map.get_mut(&(path_query.to_string(), epoch));
        match hit {
            Some((s, resp)) => {
                *s = stamp;
                let resp = resp.clone();
                crate::obs::metrics().cache_hits.inc();
                Some(resp)
            }
            None => {
                crate::obs::metrics().cache_misses.inc();
                None
            }
        }
    }

    pub fn put(&self, path_query: &str, epoch: u64, resp: CachedResponse) {
        let cost = Inner::entry_cost(path_query, &resp);
        if self.max_bytes > 0 && cost > self.max_bytes {
            // A single response larger than the whole budget is never
            // cached — admitting it would immediately evict everything.
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.stamp += 1;
        let stamp = inner.stamp;
        let key = (path_query.to_string(), epoch);
        if let Some((_, old)) = inner.map.remove(&key) {
            inner.bytes = inner.bytes.saturating_sub(Inner::entry_cost(path_query, &old));
        }
        while inner.map.len() >= self.cap
            || (self.max_bytes > 0 && inner.bytes + cost > self.max_bytes)
        {
            if !inner.evict_oldest() {
                break;
            }
        }
        inner.bytes += cost;
        inner.map.insert(key, (stamp, resp));
        crate::obs::metrics().cache_bytes.set(inner.bytes as i64);
    }

    /// Evict coldest-first until resident bytes are at or under
    /// `watermark`. Called by the overload layer when the shed gate
    /// closes: memory is handed back before any request is refused.
    pub fn shrink_to_bytes(&self, watermark: usize) {
        let mut inner = self.inner.lock().unwrap();
        if inner.bytes <= watermark {
            return;
        }
        while inner.bytes > watermark {
            if !inner.evict_oldest() {
                break;
            }
        }
        crate::obs::metrics().cache_bytes.set(inner.bytes as i64);
        crate::obs::metrics().cache_shrinks.inc();
        manic_obs::event!(
            manic_obs::WARN, "serve", "cache_shrunk", 0,
            bytes = inner.bytes as u64, watermark = watermark as u64,
        );
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.inner.lock().unwrap().bytes
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(tag: &str) -> Response {
        Response::json(200, format!("{{\"tag\":\"{tag}\"}}"))
    }

    fn sized(n: usize) -> Response {
        Response::new(200, "application/json", vec![b'x'; n])
    }

    fn body(r: &Response) -> String {
        String::from_utf8(r.body.to_vec()).unwrap()
    }

    #[test]
    fn hit_returns_same_body_and_epoch_isolates() {
        let c = ResponseCache::with_limits(8, CACHE_MAX_BYTES);
        assert!(c.get("/a", 1).is_none());
        c.put("/a", 1, resp("one"));
        assert_eq!(body(&c.get("/a", 1).unwrap()), "{\"tag\":\"one\"}");
        // Same path, new epoch: miss.
        assert!(c.get("/a", 2).is_none());
    }

    #[test]
    fn lru_evicts_coldest() {
        let c = ResponseCache::with_limits(2, CACHE_MAX_BYTES);
        c.put("/a", 1, resp("a"));
        c.put("/b", 1, resp("b"));
        c.get("/a", 1); // touch /a so /b is coldest
        c.put("/c", 1, resp("c"));
        assert!(c.get("/b", 1).is_none(), "coldest entry evicted");
        assert!(c.get("/a", 1).is_some());
        assert!(c.get("/c", 1).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn byte_budget_evicts_before_overflow() {
        // Budget fits two ~1 KiB entries but not three.
        let c = ResponseCache::with_limits(64, 2 * 1200);
        c.put("/a", 1, sized(1024));
        c.put("/b", 1, sized(1024));
        assert_eq!(c.len(), 2);
        c.put("/c", 1, sized(1024));
        assert_eq!(c.len(), 2, "byte budget forced an eviction");
        assert!(c.get("/a", 1).is_none(), "coldest went first");
        assert!(c.bytes() <= 2 * 1200);
    }

    #[test]
    fn oversized_response_is_never_cached() {
        let c = ResponseCache::with_limits(64, 4096);
        c.put("/big", 1, sized(1 << 20));
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn replacing_an_entry_does_not_leak_bytes() {
        let c = ResponseCache::with_limits(64, 1 << 20);
        c.put("/a", 1, sized(4096));
        let b0 = c.bytes();
        for _ in 0..10 {
            c.put("/a", 1, sized(4096));
        }
        assert_eq!(c.bytes(), b0, "replacement is byte-neutral");
    }

    #[test]
    fn shrink_to_watermark() {
        let c = ResponseCache::with_limits(64, 1 << 20);
        for i in 0..16 {
            c.put(&format!("/s/{i}"), 1, sized(4096));
        }
        assert!(c.bytes() > 8192);
        c.shrink_to_bytes(8192);
        assert!(c.bytes() <= 8192, "shrunk to watermark: {}", c.bytes());
        assert!(!c.is_empty(), "watermark keeps the hottest entries");
        // Shrinking an already-small cache is a no-op.
        let n = c.len();
        c.shrink_to_bytes(8192);
        assert_eq!(c.len(), n);
    }
}
