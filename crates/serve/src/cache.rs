//! The daemon's result cache.
//!
//! Responses are keyed on the exact statement text, compared byte for
//! byte: a hit needs an equal statement, not an equal hash. The text is a
//! complete key because the daemon serves one snapshot loaded at startup,
//! with its pool width, sampling seed and engine options fixed for its
//! life, so a timing-free response is a function of its statement alone.
//! Keys cost at most `capacity` times the request cap of memory (64 KiB
//! by default).
//!
//! Eviction is FIFO with a fixed capacity: the workload this serves is
//! "millions of users asking the same handful of dashboards", where
//! recency sophistication buys little over a bounded map.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A bounded map from statement text to rendered response bodies.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Arc<str>, Arc<String>>,
    order: VecDeque<Arc<str>>,
}

impl ResultCache {
    /// A cache holding at most `capacity` responses. Zero disables caching
    /// entirely ([`ResultCache::get`] always misses, inserts are dropped).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The cached body for `statement`, if present.
    pub fn get(&self, statement: &str) -> Option<Arc<String>> {
        self.inner
            .lock()
            .expect("cache lock")
            .map
            .get(statement)
            .cloned()
    }

    /// Inserts `body` under `statement`, evicting the oldest entry at
    /// capacity. Re-inserting an existing statement refreshes the body
    /// without growing the queue.
    pub fn insert(&self, statement: &str, body: Arc<String>) {
        if self.capacity == 0 {
            return;
        }
        let key: Arc<str> = Arc::from(statement);
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.map.insert(Arc::clone(&key), body).is_none() {
            inner.order.push_back(key);
            while inner.map.len() > self.capacity {
                if let Some(oldest) = inner.order.pop_front() {
                    inner.map.remove(&oldest);
                }
            }
        }
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_owned())
    }

    #[test]
    fn a_hit_needs_a_byte_equal_statement() {
        let cache = ResultCache::new(4);
        cache.insert("SELECT TOP 2 FROM t", body("a"));
        assert_eq!(cache.get("SELECT TOP 2 FROM t").unwrap().as_str(), "a");
        for other in [
            "select top 2 from t",
            "SELECT TOP 2 FROM t ",
            "SELECT  TOP 2 FROM t",
            "SELECT TOP 3 FROM t",
            "",
        ] {
            assert!(cache.get(other).is_none(), "{other:?}");
        }
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let cache = ResultCache::new(2);
        cache.insert("a", body("a"));
        cache.insert("b", body("b"));
        cache.insert("c", body("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_none(), "oldest evicted");
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn reinsert_refreshes_without_duplicating() {
        let cache = ResultCache::new(2);
        cache.insert("a", body("a"));
        cache.insert("a", body("a2"));
        cache.insert("b", body("b"));
        assert_eq!(cache.get("a").unwrap().as_str(), "a2");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResultCache::new(0);
        cache.insert("a", body("a"));
        assert!(cache.get("a").is_none());
        assert!(cache.is_empty());
    }
}
