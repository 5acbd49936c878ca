//! Offline stand-in for [`serde_json`](https://crates.io/crates/serde_json).
//!
//! Thin facade over the `serde` shim, whose `Serialize`/`Deserialize`
//! traits are already JSON-direct (see that crate's docs). Provides the
//! three entry points this workspace calls: [`to_string`],
//! [`to_string_pretty`], and [`from_str`].
//!
//! Dialect note: non-finite floats are written bare (`NaN`, `Infinity`,
//! `-Infinity`) so matrices containing sentinel infinities roundtrip; the
//! parser accepts the same tokens.

pub use serde::{Error, Value};

/// Serializes `value` to compact JSON.
///
/// Infallible for the shim's data model; the `Result` keeps call sites
/// source-compatible with the real `serde_json`.
pub fn to_string<T>(value: &T) -> Result<String, Error>
where
    T: serde::Serialize + ?Sized,
{
    let mut out = String::new();
    value.serialize_json(&mut out);
    Ok(out)
}

/// Serializes `value` to two-space-indented JSON.
pub fn to_string_pretty<T>(value: &T) -> Result<String, Error>
where
    T: serde::Serialize + ?Sized,
{
    let compact = to_string(value)?;
    Ok(Value::parse(&compact)?.pretty())
}

/// Deserializes a `T` from JSON text.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    T::deserialize_json(&Value::parse(text)?)
}

#[cfg(test)]
mod tests {
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Nested {
        label: String,
        weights: Vec<f64>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Doc {
        id: u64,
        ratio: f32,
        inner: Nested,
        maybe: Option<i32>,
    }

    fn doc() -> Doc {
        Doc {
            id: 12_345_678_901,
            ratio: 0.25,
            inner: Nested {
                label: "a \"b\"\nc".into(),
                weights: vec![1.5, -0.125, f64::INFINITY],
            },
            maybe: None,
        }
    }

    #[test]
    fn derive_roundtrip() {
        let d = doc();
        let json = super::to_string(&d).unwrap();
        let back: Doc = super::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn pretty_reparses_to_same_value() {
        let d = doc();
        let pretty = super::to_string_pretty(&d).unwrap();
        assert!(pretty.contains('\n'));
        let back: Doc = super::from_str(&pretty).unwrap();
        assert_eq!(back.inner, d.inner);
    }
}
