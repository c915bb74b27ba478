//! Deterministic content store: the prototype's stand-in for the document
//! tree served by the paper's Apache back-ends.
//!
//! Bodies are generated on the fly from the target id, so a multi-hundred-
//! megabyte corpus costs no RAM beyond its size table, while clients can
//! still verify every response byte-exactly. URIs use the `/t/<id>` scheme;
//! the paper's `/be_<k>/...` *tagging* prefix composes on top of it.

use bytes::Bytes;
use phttp_http::{Response, Version};
use phttp_trace::{TargetId, Trace};

/// An immutable corpus of generated documents.
#[derive(Debug, Clone)]
pub struct ContentStore {
    sizes: Vec<u64>,
    /// Each target's serialized `200 OK` head, per [`Version`]
    /// (`[HTTP/1.0, HTTP/1.1]`): a response head is a pure function of
    /// target size and version, so it is built once here and every
    /// response shares it.
    heads: Vec<[Bytes; 2]>,
}

impl ContentStore {
    /// Builds a store over the trace's corpus (same target ids and sizes).
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_sizes(
            (0..trace.num_targets() as u32)
                .map(|i| trace.size_of(TargetId(i)))
                .collect(),
        )
    }

    /// Builds a store from explicit sizes (tests).
    pub fn from_sizes(sizes: Vec<u64>) -> Self {
        let heads = sizes
            .iter()
            .map(|&size| {
                [Version::Http10, Version::Http11].map(|v| Response::ok_head(v, size as usize))
            })
            .collect();
        ContentStore { sizes, heads }
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Returns `true` if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The canonical URI of a target.
    pub fn uri(target: TargetId) -> String {
        format!("/t/{}", target.0)
    }

    /// Resolves a `/t/<id>` path back to its target.
    pub fn lookup(&self, path: &str) -> Option<TargetId> {
        let id: u32 = path.strip_prefix("/t/")?.parse().ok()?;
        ((id as usize) < self.sizes.len()).then_some(TargetId(id))
    }

    /// Size of a target in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the target is out of range.
    pub fn size(&self, target: TargetId) -> u64 {
        self.sizes[target.0 as usize]
    }

    /// The serialized `200 OK` head of `target`'s response under
    /// `version` — byte-identical to `Response::ok_head(version, size)`
    /// and shared: handing it out is a refcount bump.
    ///
    /// # Panics
    ///
    /// Panics if the target is out of range.
    pub fn ok_head(&self, target: TargetId, version: Version) -> Bytes {
        let idx = match version {
            Version::Http10 => 0,
            Version::Http11 => 1,
        };
        self.heads[target.0 as usize][idx].clone()
    }

    /// Byte `i` of `target`'s body: a cheap keyed byte pattern.
    fn pattern(target: TargetId) -> impl Fn(usize) -> u8 {
        let seed = target.0.wrapping_mul(2654435761);
        move |i| (seed.wrapping_add(i as u32).wrapping_mul(40503) >> 8) as u8
    }

    /// Generates the target's body: `pattern` at every offset, collected
    /// straight into the shared buffer — one allocation, no staging
    /// copy. Generation is the emulation's own cost, billed to whichever
    /// thread serves the miss.
    pub fn body(&self, target: TargetId) -> Bytes {
        (0..self.size(target) as usize)
            .map(Self::pattern(target))
            .collect()
    }

    /// Verifies that `body` is exactly the target's generated content.
    pub fn verify(&self, target: TargetId, body: &[u8]) -> bool {
        if body.len() as u64 != self.size(target) {
            return false;
        }
        // Spot-check a prefix and suffix instead of the full body: the
        // pattern is position-dependent, so truncation/corruption at either
        // end is caught, and verification stays O(1) per response.
        let expect = Self::pattern(target);
        let n = body.len();
        let head = n.min(64);
        if (0..head).any(|i| body[i] != expect(i)) {
            return false;
        }
        (n.saturating_sub(64)..n).all(|i| body[i] == expect(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ContentStore {
        ContentStore::from_sizes(vec![0, 100, 5000])
    }

    #[test]
    fn uri_lookup_roundtrip() {
        let s = store();
        for i in 0..3u32 {
            let uri = ContentStore::uri(TargetId(i));
            assert_eq!(s.lookup(&uri), Some(TargetId(i)));
        }
        assert_eq!(s.lookup("/t/99"), None);
        assert_eq!(s.lookup("/x/1"), None);
        assert_eq!(s.lookup("/t/abc"), None);
    }

    #[test]
    fn body_matches_size_and_verifies() {
        let s = store();
        for i in 0..3u32 {
            let t = TargetId(i);
            let b = s.body(t);
            assert_eq!(b.len() as u64, s.size(t));
            assert!(s.verify(t, &b));
        }
    }

    #[test]
    fn verify_rejects_corruption() {
        let s = store();
        let t = TargetId(2);
        let mut b = s.body(t).to_vec();
        assert!(s.verify(t, &b));
        b[0] ^= 0xff;
        assert!(!s.verify(t, &b));
        let b2 = s.body(t);
        assert!(!s.verify(t, &b2[..b2.len() - 1]));
        // Tail corruption is caught too.
        let mut b3 = s.body(t).to_vec();
        let n = b3.len();
        b3[n - 1] ^= 0xff;
        assert!(!s.verify(t, &b3));
    }

    /// `body` is byte-identical to the per-byte formula at every size
    /// around its vector widths and for one large target, and `verify`
    /// accepts exactly that and still rejects a corrupt head or tail.
    #[test]
    fn body_is_the_per_byte_formula_at_every_size() {
        let mut sizes: Vec<u64> = (0..=4099).collect();
        sizes.push(2 * 1024 * 1024);
        let s = ContentStore::from_sizes(sizes);
        for i in 0..s.len() as u32 {
            let t = TargetId(i);
            let seed = t.0.wrapping_mul(2654435761);
            let golden: Vec<u8> = (0..s.size(t) as usize)
                .map(|i| (seed.wrapping_add(i as u32).wrapping_mul(40503) >> 8) as u8)
                .collect();
            let mut body = s.body(t).to_vec();
            assert!(body == golden, "target {i} differs from the formula");
            assert!(s.verify(t, &body));
            if let Some(last) = body.len().checked_sub(1) {
                body[last] ^= 1;
                assert!(!s.verify(t, &body), "target {i}: corrupt tail accepted");
                body[last] ^= 1;
                body[0] ^= 1;
                assert!(!s.verify(t, &body), "target {i}: corrupt head accepted");
            }
        }
    }

    #[test]
    fn ok_heads_are_the_encoders_heads_and_shared() {
        let s = store();
        for i in 0..3u32 {
            let t = TargetId(i);
            for v in [Version::Http10, Version::Http11] {
                let head = s.ok_head(t, v);
                assert_eq!(head, Response::ok(v, s.body(t)).head_bytes());
                assert!(head.strong_count() > 1, "a clone of the table's head");
            }
        }
    }

    #[test]
    fn bodies_differ_across_targets() {
        let s = ContentStore::from_sizes(vec![256, 256]);
        assert_ne!(s.body(TargetId(0)), s.body(TargetId(1)));
    }
}
