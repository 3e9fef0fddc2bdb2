//! Output digests: a 64-bit FNV-1a over the JSON serialization of what a
//! workload produced, so two runs of one seed can be compared by one
//! printed number.

use serde::Serialize;

/// A running FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in `value`'s JSON serialization, terminated so that
    /// consecutive values cannot run together.
    pub fn update_json<T: Serialize>(&mut self, value: &T) {
        let text = serde_json::to_string(value).expect("benchmark outputs serialize");
        self.update(text.as_bytes());
        self.update(b"\n");
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one serializable value.
pub fn of_json<T: Serialize>(value: &T) -> Digest {
    let mut d = Digest::default();
    d.update_json(value);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony::rounding::IntegerPlan;

    #[test]
    fn fnv1a_reference_vectors() {
        let mut d = Digest::default();
        assert_eq!(d.hex(), "cbf29ce484222325");
        d.update(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
        let mut d = Digest::default();
        d.update(b"foobar");
        assert_eq!(d.hex(), "85944171f73967e8");
    }

    #[test]
    fn plan_digest_is_stable_and_order_sensitive() {
        let a = IntegerPlan {
            machines: vec![1, 2],
            quotas: vec![vec![3, 0], vec![0, 4]],
        };
        let b = IntegerPlan {
            machines: vec![2, 1],
            quotas: vec![vec![3, 0], vec![0, 4]],
        };
        assert_eq!(of_json(&a), of_json(&a.clone()));
        assert_ne!(of_json(&a), of_json(&b));
        let mut ab = Digest::default();
        ab.update_json(&a);
        ab.update_json(&b);
        let mut ba = Digest::default();
        ba.update_json(&b);
        ba.update_json(&a);
        assert_ne!(ab, ba);
        // Pinned (FNV-1a of `{"machines":[1,2],"quotas":[[3,0],[0,4]]}` and a
        // newline): a digest printed by one build must mean the same in
        // the next.
        assert_eq!(of_json(&a).hex(), "3ac1fc362c5e3f20");
    }
}
