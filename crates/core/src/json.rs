//! Minimal JSON value model, writer and parser.
//!
//! The workspace builds offline against a no-op `serde` stand-in, so the
//! derive attributes on the result types are inert. This module is the
//! working substitute: a [`JsonValue`] tree with a deterministic pretty
//! writer (stable key order — objects are ordered vectors, not maps) and a
//! strict recursive-descent parser. [`crate::solver::SolveReport`] round-trips
//! through it, and the serve protocol and its cache snapshots are written
//! and read with it.
//!
//! Numbers are stored as their JSON token text ([`JsonValue::Number`] wraps a
//! `String`), so integer exactness and `f64` shortest-round-trip formatting
//! are both preserved: `f64`s are written with Rust's `Display` (which is
//! guaranteed to parse back to the same bits) and `u64`s never pass through a
//! float. Non-finite floats have no JSON representation and are written as
//! `null`; [`JsonValue::as_f64_or_nan`] reads `null` back as NaN.

use std::fmt;

/// A parse error with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// A JSON document fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its exact JSON token text.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered key → value list (insertion order is the
    /// serialization order; lookups return the first match). The parser
    /// rejects documents with duplicate keys — in a request/response
    /// protocol a silently dropped duplicate is an injection hazard — but
    /// the builder API ([`JsonValue::set`]) does not re-check, so
    /// programmatically built trees are trusted to keep keys unique.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object.
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// A finite `f64` as a number (shortest round-trip form); non-finite
    /// values become `null`.
    pub fn from_f64(value: f64) -> Self {
        if value.is_finite() {
            JsonValue::Number(format!("{value}"))
        } else {
            JsonValue::Null
        }
    }

    /// A `u64` as an exact integer token.
    pub fn from_u64(value: u64) -> Self {
        JsonValue::Number(value.to_string())
    }

    /// A `usize` as an exact integer token.
    pub fn from_usize(value: usize) -> Self {
        JsonValue::Number(value.to_string())
    }

    /// An array of finite `f64`s (non-finite entries become `null`).
    pub fn from_f64_slice(values: &[f64]) -> Self {
        JsonValue::Array(values.iter().map(|&v| Self::from_f64(v)).collect())
    }

    /// An array of `u64`s.
    pub fn from_u64_slice(values: &[u64]) -> Self {
        JsonValue::Array(values.iter().map(|&v| Self::from_u64(v)).collect())
    }

    /// An array of strings.
    pub fn from_str_slice<S: AsRef<str>>(values: &[S]) -> Self {
        JsonValue::Array(
            values
                .iter()
                .map(|v| JsonValue::String(v.as_ref().to_string()))
                .collect(),
        )
    }

    /// Appends a key to an object; panics if `self` is not an object (builder
    /// misuse, not a data error).
    pub fn set(&mut self, key: &str, value: JsonValue) -> &mut Self {
        match self {
            JsonValue::Object(fields) => fields.push((key.to_string(), value)),
            other => panic!("JsonValue::set on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`JsonValue::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: JsonValue) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up a key in an object (first match); `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `f64`, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Like [`JsonValue::as_f64`] but mapping `null` to NaN — the read-side
    /// inverse of [`JsonValue::from_f64`] writing non-finite floats as
    /// `null`.
    pub fn as_f64_or_nan(&self) -> Option<f64> {
        match self {
            JsonValue::Null => Some(f64::NAN),
            other => other.as_f64(),
        }
    }

    /// The number parsed as `u64`, if this is an integer `Number`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `usize`, if this is an integer `Number`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an `Object`.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline — the
    /// layout of `SolveReport::to_json` and of the serve layer's responses.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line (a single space follows each `,` and `:`
    /// separator; no indentation or newlines).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends this value as [`JsonValue::to_pretty_string`] writes it
    /// nested `depth` containers deep: continuation lines are indented
    /// `depth` levels and no newline follows. Text written at the depth of a
    /// field can be spliced into a pretty document in that field's place.
    pub fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                // Arrays of scalars stay on one line; arrays holding any
                // container break one element per line.
                let nested = items
                    .iter()
                    .any(|v| matches!(v, JsonValue::Array(_) | JsonValue::Object(_)));
                if nested {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        indent(out, depth + 1);
                        item.write_pretty(out, depth + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    indent(out, depth);
                    out.push(']');
                } else {
                    self.write_compact(out);
                }
            }
            JsonValue::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(raw) => out.push_str(raw),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    /// Returns [`JsonError`] with the byte offset of the first violation.
    pub fn parse(input: &str) -> Result<Self, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') if self.consume_literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.consume_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.consume_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("unfinished escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("unfinished \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any report
                            // field; reject them instead of mis-decoding.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("malformed number"))?
            .to_string();
        // Validate the token by parsing it; the raw text is what's stored.
        raw.parse::<f64>()
            .map_err(|_| self.error("malformed number"))?;
        Ok(JsonValue::Number(raw))
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key_offset = self.pos;
            let key = self.parse_string()?;
            if fields.iter().any(|(existing, _)| *existing == key) {
                return Err(JsonError {
                    offset: key_offset,
                    message: format!("duplicate object key '{key}'"),
                });
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "3.25", "-1e-9", "\"hi\""] {
            let value = JsonValue::parse(text).unwrap();
            assert_eq!(value.to_compact_string(), text);
        }
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [0.1, 1.0 / 3.0, -2.5e300, 4.9e-324, 0.0, 12345.6789] {
            let value = JsonValue::from_f64(v);
            let back = JsonValue::parse(&value.to_compact_string())
                .unwrap()
                .as_f64()
                .unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v}");
        }
        assert_eq!(JsonValue::from_f64(f64::NAN), JsonValue::Null);
        assert!(JsonValue::Null.as_f64_or_nan().unwrap().is_nan());
    }

    #[test]
    fn u64_is_exact_beyond_f64_precision() {
        let v = u64::MAX - 1;
        let value = JsonValue::from_u64(v);
        assert_eq!(
            JsonValue::parse(&value.to_compact_string())
                .unwrap()
                .as_u64(),
            Some(v)
        );
    }

    #[test]
    fn objects_preserve_key_order_and_lookup() {
        let doc = JsonValue::object()
            .with("b", JsonValue::from_u64(2))
            .with("a", JsonValue::from_f64_slice(&[1.0, 2.0]));
        let text = doc.to_pretty_string();
        assert!(text.find("\"b\"").unwrap() < text.find("\"a\"").unwrap());
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("b").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{1} ünïcode";
        let value = JsonValue::String(original.to_string());
        let parsed = JsonValue::parse(&value.to_compact_string()).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        assert_eq!(
            JsonValue::parse("\"\\u0041\\u00e9\"").unwrap().as_str(),
            Some("Aé")
        );
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "[1] x",
            "\"\\q\"",
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad}: {err}");
            assert!(err.to_string().contains("byte"), "{bad}");
        }
    }

    #[test]
    fn duplicate_object_keys_are_rejected_naming_the_key() {
        let err = JsonValue::parse("{\"a\": 1, \"b\": 2, \"a\": 3}").unwrap_err();
        assert_eq!(err.message, "duplicate object key 'a'");
        assert_eq!(err.offset, 17, "offset points at the duplicated key");
        assert_eq!(
            err.to_string(),
            "JSON parse error at byte 17: duplicate object key 'a'"
        );
        // Duplicates are rejected at any nesting depth.
        let nested = JsonValue::parse("[{\"x\": {\"k\": 1, \"k\": 2}}]").unwrap_err();
        assert_eq!(nested.message, "duplicate object key 'k'");
        // Equal keys in *different* objects are fine, as is repeated content
        // under distinct keys.
        let ok = JsonValue::parse("{\"a\": {\"k\": 1}, \"b\": {\"k\": 1}}").unwrap();
        assert_eq!(ok.as_object().unwrap().len(), 2);
    }

    #[test]
    fn nested_arrays_pretty_print_one_element_per_line() {
        let doc = JsonValue::Array(vec![
            JsonValue::object().with("x", JsonValue::from_u64(1)),
            JsonValue::object().with("x", JsonValue::from_u64(2)),
        ]);
        let text = doc.to_pretty_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        assert!(text.lines().count() > 2);
    }
}
