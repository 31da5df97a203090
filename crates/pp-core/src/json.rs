//! The workspace's one JSON codec: a value type, a canonical compact
//! writer and a recursive-descent parser.
//!
//! The vendored `serde` is an annotation-only facade (the build has no
//! registry access), so every JSON document in the workspace — engine
//! checkpoints, metrics snapshots and chrome traces, scenario files, the
//! service's wire protocol and canonical results, stamped bench records —
//! is built as a [`Json`] value and written by [`Json::to_json`], and read
//! back by [`Json::parse`].
//!
//! # Accepted grammar
//!
//! RFC 8259 JSON, read slightly leniently, one complete document per call
//! (trailing non-whitespace is an error):
//!
//! * whitespace is space, tab, LF and CR;
//! * literals `null`, `true`, `false`;
//! * strings with the escapes `\"` `\\` `\/` `\b` `\f` `\n` `\r` `\t` and
//!   `\uXXXX` (each surrogate code unit reads as U+FFFD; pairs are not
//!   reassembled), and any other UTF-8 text verbatim, raw control
//!   characters included;
//! * numbers `-? digits [. digits] [(e|E) [+|-] digits]`, read leniently
//!   (leading zeros and an empty fraction are accepted).  An integer with
//!   no fraction or exponent becomes [`Json::U64`] when it fits, else
//!   [`Json::I64`]; everything else becomes [`Json::F64`];
//! * arrays and objects; duplicate object keys are kept, and [`Json::get`]
//!   returns the first.
//!
//! # Output guarantees
//!
//! * **Deterministic bytes.**  Objects keep insertion order (a `Vec` of
//!   pairs, not a hash map), output is compact (no whitespace), strings
//!   escape `"`, `\`, `\n`, `\r`, `\t` and write other control characters as
//!   `\u00XX`, and floats print through Rust's shortest round-trip
//!   `Display` ([`write_f64`]; non-finite floats write `null`).  Writing
//!   the same value twice yields the same bytes — checkpoint goldens, the
//!   scenario round trip and the byte-equality contract between `pp_serve`
//!   results and `usd_run --scenario` stand on this.
//! * **Exact integers.**  Interaction counts and RNG state words exceed
//!   2^53, so integers parse into `u64`/`i64` variants and never detour
//!   through `f64`.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (kept exact; counts exceed 2^53).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A number with a fraction or exponent part.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (deterministic re-serialization).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; precision loss past 2^53 is
    /// the caller's concern).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's key/value pairs, in document order.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes the value to compact JSON (no whitespace).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => out.push_str(&write_f64(*v)),
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns a position-stamped message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// A finite float in Rust's shortest round-trip form, `null` otherwise
/// (JSON has no NaN/∞).
#[must_use]
pub fn write_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected {:?} at byte {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected {literal:?} at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not reassembled: the writer
                        // never emits them, and foreign ones map to the
                        // replacement character instead of an error.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(format!("bad escape {other:?} at byte {}", *pos));
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // piece.  Both are ASCII, so the run ends on a character
                // boundary of the input (a &str, valid UTF-8 by
                // construction).
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let mut fractional = false;
    if bytes.get(*pos) == Some(&b'.') {
        fractional = true;
        *pos += 1;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        fractional = true;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("bad number at byte {start}"));
    }
    if !fractional {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

/// An insertion-ordered object builder — the writer every canonical
/// document goes through.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    pairs: Vec<(String, Json)>,
}

impl ObjBuilder {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `key: value`.
    #[must_use]
    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.pairs.push((key.to_string(), value));
        self
    }

    /// Appends `key: value` only when `value` is `Some` — the omit-none
    /// convention that keeps serialize → parse → serialize byte-stable.
    #[must_use]
    pub fn opt(self, key: &str, value: Option<Json>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> Json {
        Json::Obj(self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in [
            "null",
            "true",
            "false",
            "0",
            "18446744073709551615",
            "-7",
            "2.5",
            "\"hi \\\"there\\\"\"",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
        ] {
            let parsed = Json::parse(doc).unwrap();
            assert_eq!(parsed.to_json(), doc, "round trip of {doc}");
        }
    }

    #[test]
    fn large_counts_stay_exact() {
        let doc = format!("{{\"interactions\":{}}}", u64::MAX);
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("interactions").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parsed.to_json(), doc);
    }

    #[test]
    fn float_display_is_idempotent() {
        // Display ∘ parse ∘ Display is a fixed point: the second pass
        // serializes to the same bytes, which is all the round-trip
        // contract needs.
        for x in [0.1 + 0.2, 1.0 / 3.0, 2.0, 1e-9, 123456.789] {
            let once = write_f64(x);
            let back = Json::parse(&once).unwrap().as_f64().unwrap();
            assert_eq!(write_f64(back), once);
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let doc = "{\"z\":1,\"a\":2}";
        assert_eq!(Json::parse(doc).unwrap().to_json(), doc);
    }

    #[test]
    fn malformed_documents_fail_with_positions() {
        for doc in ["{", "[1,]", "\"abc", "{\"a\":}", "12 34", "nul"] {
            assert!(Json::parse(doc).is_err(), "{doc} should fail");
        }
    }

    #[test]
    fn document_shapes_we_emit_parse() {
        let doc = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#)
            .unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("e"), Some(&Json::Null));
        assert!(Json::parse("{\"open\":").is_err());
        assert!(Json::parse("[1, 2] junk").is_err());
    }

    #[test]
    fn unicode_text_is_preserved() {
        let doc = Json::parse(r#"{"s": "10⁶ agents — fast"}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("10⁶ agents — fast"));
        assert_eq!(doc.to_json(), r#"{"s":"10⁶ agents — fast"}"#);
    }

    #[test]
    fn control_characters_escape_and_restore() {
        let original = "line\nbreak\ttab \u{0001} end";
        let mut out = String::new();
        write_json_string(original, &mut out);
        assert_eq!(Json::parse(&out).unwrap().as_str(), Some(original));
    }
}
