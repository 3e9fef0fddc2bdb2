//! How 64-bit integers cross the JSON value model, which carries every
//! number as an `f64` and so holds integers exactly only up to 2^53 − 1.
//! Hashes use all 64 bits and travel as hex strings; seeds are numbers
//! and must fit the exact range, checked where a user gives one.

use serde::value::{DeError, Value};

/// FNV-1a-64 over a byte slice: the trace-file integrity hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A 64-bit hash in its wire form: `"0x"` and 16 hex digits.
pub fn hash_to_value(hash: u64) -> Value {
    Value::String(format!("{hash:#018x}"))
}

/// Reads a hash written by [`hash_to_value`].
///
/// # Errors
///
/// Returns [`DeError`] unless `v` is a hex string of at most 64 bits.
pub fn hash_from_value(v: &Value) -> Result<u64, DeError> {
    let text = v.as_str().ok_or_else(|| DeError::new("expected a hex hash string"))?;
    u64::from_str_radix(text.trim_start_matches("0x"), 16)
        .map_err(|e| DeError::new(format!("bad hash `{text}`: {e}")))
}

/// Parses a seed given on a command line. A seed above 2^53 − 1 is
/// rejected: a checkpoint stores it as a JSON number, which would round
/// it, and a resume would run a different seed than the one given.
///
/// # Errors
///
/// Returns a message for text that is not a `u64` or is above 2^53 − 1.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    let seed: u64 = text.parse().map_err(|e| format!("`{text}`: {e}"))?;
    let max = serde::MAX_EXACT_INT as u64;
    if seed > max {
        return Err(format!("`{text}` is above {max} (2^53 - 1), the largest seed stored exactly"));
    }
    Ok(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hashes_round_trip_as_hex_strings() {
        for hash in [0, 0xff, 0xdead_beef_cafe_f00d, u64::MAX] {
            let v = hash_to_value(hash);
            assert_eq!(v.as_str().map(str::len), Some(18));
            assert_eq!(hash_from_value(&v).unwrap(), hash);
        }
        assert!(hash_from_value(&Value::Number(1.0)).is_err());
        assert!(hash_from_value(&Value::String("0xnothex".to_owned())).is_err());
    }

    #[test]
    fn seeds_must_be_exact_in_json() {
        let max = (1u64 << 53) - 1;
        assert_eq!(parse_seed(&max.to_string()), Ok(max));
        assert_eq!(u64::from_value(&Value::from(max)), Ok(max));
        for text in ["9007199254740992", "9007199254740993", "18446744073709551615", "-1", "x"] {
            assert!(parse_seed(text).is_err(), "{text}");
        }
    }
}
