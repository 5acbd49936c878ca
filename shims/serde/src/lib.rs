//! Offline stand-in for [`serde`](https://crates.io/crates/serde).
//!
//! This workspace builds without registry access, so `serde` + its derive
//! are vendored as a minimal shim (see the workspace `Cargo.toml`). The
//! real serde is format-agnostic through `Serializer`/`Deserializer`
//! visitors; the only format this workspace ever uses is JSON (via the
//! sibling `serde_json` shim), so the shim collapses the data model:
//!
//! * [`Serialize`] writes JSON text directly into a `String`;
//! * [`Deserialize`] reads from a parsed JSON [`Value`] tree;
//! * `#[derive(Serialize, Deserialize)]` (re-exported from the
//!   `serde_derive` shim) supports non-generic brace structs only, each
//!   field encoded under its own name:
//!
//! ```
//! #[derive(serde::Serialize, serde::Deserialize)]
//! struct Row {
//!     id: u64,
//! }
//! ```
//!
//!   An enum or a `#[serde(..)]` attribute fails at expansion instead of
//!   being encoded some other way than the real serde would:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! enum Mode {
//!     Fast,
//! }
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Row {
//!     #[serde(skip)]
//!     cache: Vec<u8>,
//! }
//! ```
//!
//! It implements exactly the API subset the workspace uses: the
//! experiment binaries' artifacts (which also serialize pairs and
//! fixed-size arrays) and the benchmark's records and specification.
//! Swapping back to the real crates is a manifest-only change as long as
//! code sticks to derives + `serde_json::{to_string, to_string_pretty,
//! from_str}`, which is all the workspace uses.

use std::collections::BTreeMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// Serialization/deserialization failure.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error carrying `msg`.
    pub fn msg(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// A parsed JSON document.
///
/// Objects preserve insertion order; integers keep full `i128` precision
/// so `u64`/`i64` fields roundtrip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i128),
    /// Any other number (also `NaN` / `Infinity`, which this dialect
    /// writes bare so that non-finite floats roundtrip).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key–value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Looks up `key`, if this is a [`Value::Obj`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// Pretty-prints with two-space indentation (for artifacts meant to
    /// be read by humans; `Serialize` itself always writes compactly).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out
    }

    fn pretty_into(&self, out: &mut String, indent: usize) {
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.pretty_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.pretty_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.compact_into(out),
        }
    }

    fn compact_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                use fmt::Write;
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => write_f64(out, *f),
            Value::Str(s) => write_json_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.compact_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.compact_into(out);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::msg("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'N') if self.eat("NaN") => Ok(Value::Float(f64::NAN)),
            Some(b'I') if self.eat("Infinity") => Ok(Value::Float(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-Infinity") => {
                self.pos += "-Infinity".len();
                Ok(Value::Float(f64::NEG_INFINITY))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(Error::msg(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(Error::msg(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(Error::msg(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::msg("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::msg("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            if (0xD800..0xDC00).contains(&hi) && self.eat("\\u") {
                                let lo = self.hex4()?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER),
                                    );
                                } else {
                                    // High surrogate followed by a non-low
                                    // escape: replace the orphan, keep the
                                    // second escape's own character.
                                    out.push(char::REPLACEMENT_CHARACTER);
                                    out.push(
                                        char::from_u32(lo).unwrap_or(char::REPLACEMENT_CHARACTER),
                                    );
                                }
                            } else {
                                out.push(char::from_u32(hi).unwrap_or(char::REPLACEMENT_CHARACTER));
                            }
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-decode UTF-8 starting at the byte we just took;
                    // a code point is at most 4 bytes, so bound the slice
                    // to keep string parsing linear in document size.
                    let start = self.pos - 1;
                    let end = (start + 4).min(self.bytes.len());
                    let s = match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => s,
                        // A bounded slice may cut a trailing multi-byte
                        // sequence; valid_up_to covers the full char when
                        // the input is well-formed UTF-8.
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&self.bytes[start..start + e.valid_up_to()])
                                .unwrap()
                        }
                        Err(_) => return Err(Error::msg("invalid UTF-8")),
                    };
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::msg("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::msg("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::msg("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::msg(format!("bad number '{text}'")))
    }
}

/// Writes `s` as a quoted, escaped JSON string.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes an `f64` so it roundtrips: shortest decimal for finite values
/// (always with enough info to reparse), bare `NaN`/`Infinity` otherwise.
fn write_f64(out: &mut String, v: f64) {
    use fmt::Write;
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("Infinity");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Keep a fraction marker so integral floats reparse as Float,
        // preserving the f64 type through Value.
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Types that can write themselves as JSON text.
pub trait Serialize {
    /// Appends this value's JSON encoding to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// Types that can be read back from a parsed JSON [`Value`].
pub trait Deserialize: Sized {
    /// Builds `Self` from `v`.
    fn deserialize_json(v: &Value) -> Result<Self, Error>;
}

fn type_error<T>(expected: &str, got: &Value) -> Result<T, Error> {
    Err(Error::msg(format!(
        "expected {expected}, got {}",
        got.type_name()
    )))
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                use fmt::Write;
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(v: &Value) -> Result<Self, Error> {
                let wide: i128 = match v {
                    Value::Int(i) => *i,
                    Value::Float(f) if f.fract() == 0.0 && f.abs() < 2e18 => *f as i128,
                    other => return type_error("integer", other),
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error::msg(format!(
                        "{wide} out of range for {}", stringify!($t)
                    )))
            }
        }
    )*};
}

impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                write_f64(out, *self as f64);
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    other => type_error("number", other),
                }
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => type_error("bool", other),
        }
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl Deserialize for String {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => type_error("string", other),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(inner) => inner.serialize_json(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_json(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.serialize_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Arr(items) => items.iter().map(T::deserialize_json).collect(),
            other => type_error("array", other),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        self.0.serialize_json(out);
        out.push(',');
        self.1.serialize_json(out);
        out.push(']');
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize_json(v)?)))
                .collect(),
            other => type_error("object", other),
        }
    }
}

// ---- helpers used by the generated derive code ------------------------

/// Derive helper: writes the separator + quoted key for one struct field.
#[doc(hidden)]
pub fn __ser_key(out: &mut String, first: &mut bool, key: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    write_json_string(out, key);
    out.push(':');
}

/// Derive helper: extracts and deserializes one struct field. A missing
/// key behaves like an explicit `null` (so `Option` fields default to
/// `None`).
#[doc(hidden)]
pub fn __de_field<T: Deserialize>(v: &Value, struct_name: &str, key: &str) -> Result<T, Error> {
    if !matches!(v, Value::Obj(_)) {
        return type_error(struct_name, v);
    }
    let field = v.get(key).unwrap_or(&Value::Null);
    T::deserialize_json(field).map_err(|e| Error::msg(format!("{struct_name}.{key}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> String {
        let mut out = String::new();
        Value::parse(text).unwrap().compact_into(&mut out);
        out
    }

    #[test]
    fn parser_roundtrips_documents() {
        for doc in [
            "null",
            "true",
            "[1,2.5,-3]",
            "{\"a\":[{\"b\":\"c\\nd\"}],\"e\":null}",
            "\"\\u00e9\"",
        ] {
            let back = roundtrip(doc);
            assert_eq!(Value::parse(&back).unwrap(), Value::parse(doc).unwrap());
        }
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for v in [
            0.1,
            -1.5e-12,
            3.0,
            f64::INFINITY,
            1e300,
            2.2250738585072014e-308,
        ] {
            let mut s = String::new();
            v.serialize_json(&mut s);
            let back = f64::deserialize_json(&Value::parse(&s).unwrap()).unwrap();
            assert_eq!(v, back, "{s}");
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let mut s = String::new();
        3.0f64.serialize_json(&mut s);
        assert_eq!(s, "3.0");
        assert!(matches!(Value::parse(&s).unwrap(), Value::Float(_)));
    }

    #[test]
    fn large_u64_roundtrips() {
        let v = u64::MAX - 1;
        let mut s = String::new();
        v.serialize_json(&mut s);
        assert_eq!(
            u64::deserialize_json(&Value::parse(&s).unwrap()).unwrap(),
            v
        );
    }

    #[test]
    fn option_and_missing_fields() {
        let v = Value::parse("{\"a\":1}").unwrap();
        let a: Option<u32> = __de_field(&v, "T", "a").unwrap();
        let b: Option<u32> = __de_field(&v, "T", "b").unwrap();
        assert_eq!(a, Some(1));
        assert_eq!(b, None);
        assert!(__de_field::<u32>(&v, "T", "b").is_err());
    }

    #[test]
    fn surrogate_escapes() {
        // Valid pair decodes to the astral character.
        assert_eq!(
            Value::parse("\"\\uD83D\\uDE00\"").unwrap(),
            Value::Str("😀".into())
        );
        // High surrogate + non-low escape must not panic (was a u32
        // underflow): orphan becomes U+FFFD, the second escape survives.
        assert_eq!(
            Value::parse("\"\\uD800\\u0041\"").unwrap(),
            Value::Str("\u{FFFD}A".into())
        );
        // Lone surrogates in either position degrade to U+FFFD.
        assert_eq!(
            Value::parse("\"\\uD800\"").unwrap(),
            Value::Str("\u{FFFD}".into())
        );
        assert_eq!(
            Value::parse("\"\\uDC00\"").unwrap(),
            Value::Str("\u{FFFD}".into())
        );
    }

    #[test]
    fn string_escapes() {
        let original = String::from("line\n\"quoted\" \\ tab\t é 😀");
        let mut s = String::new();
        original.serialize_json(&mut s);
        assert_eq!(
            String::deserialize_json(&Value::parse(&s).unwrap()).unwrap(),
            original
        );
    }
}
