//! Minimal JSON support: the one writer every JSON document goes
//! through, and a small recursive-descent parser for validating them.
//!
//! The workspace is offline and serde-free by policy. Documents are
//! written straight from their data by [`JsonWriter`], never built as
//! [`Json`] values: an object there loses member order and a number is
//! an `f64`, which cannot hold nanosecond stamps above 2^53. The parser
//! serves golden-file tests and the ci.sh schema check; it supports the
//! full JSON grammar except that numbers are parsed as `f64`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is not preserved.
    Obj(BTreeMap<String, Json>),
}

/// A parse failure with a byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document; trailing garbage is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True when this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
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
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are replaced, not combined;
                            // good enough for validating our own output,
                            // which never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Escapes `s` for inclusion inside a JSON string literal (no quotes
/// added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// A streaming JSON writer: typed values go straight into one `String`,
/// members in the order written. Each value and container method
/// returns the writer, so a member is one line: `w.key("calls").int(7);`.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// One entry per open container: does it hold a member yet?
    open: Vec<bool>,
    /// A key was just written; its value follows without a separator.
    after_key: bool,
}

impl JsonWriter {
    /// The compact layout, no whitespace: API answers and trace events.
    pub fn compact() -> JsonWriter {
        JsonWriter::default()
    }

    /// The pretty layout, two-space indent and one member per line
    /// (empty containers stay `{}` and `[]`): documents people read.
    pub fn pretty() -> JsonWriter {
        JsonWriter {
            pretty: true,
            ..JsonWriter::default()
        }
    }

    /// The separator and indentation before a key or an array element.
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if let Some(has_members) = self.open.last_mut() {
            if std::mem::replace(has_members, true) {
                self.out.push(',');
            }
            self.newline();
        }
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.open.len() {
                self.out.push_str("  ");
            }
        }
    }

    fn begin(&mut self, bracket: char) -> &mut Self {
        self.item();
        self.out.push(bracket);
        self.open.push(false);
        self
    }

    fn end(&mut self, bracket: char) -> &mut Self {
        if self.open.pop() == Some(true) {
            self.newline();
        }
        self.out.push(bracket);
        self
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    fn token(&mut self, value: fmt::Arguments) -> &mut Self {
        self.item();
        let _ = self.out.write_fmt(value);
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.end('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.end(']')
    }

    /// Writes a member's key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        self.quoted(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.item();
        self.quoted(s);
        self
    }

    /// An integer, exactly (no `f64` round trip).
    pub fn int(&mut self, n: u64) -> &mut Self {
        self.token(format_args!("{n}"))
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.token(format_args!("{b}"))
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.token(format_args!("null"))
    }

    /// A float at exactly `decimals` fraction digits; `null` when not
    /// finite (JSON has no NaN or infinity).
    pub fn fixed(&mut self, x: f64, decimals: usize) -> &mut Self {
        if x.is_finite() {
            self.token(format_args!("{x:.decimals$}"))
        } else {
            self.null()
        }
    }

    /// A float in its shortest round-trip form, integral values without
    /// a fraction (`3.0` as `3`); `null` when not finite.
    pub fn float(&mut self, x: f64) -> &mut Self {
        match x {
            x if !x.is_finite() => self.null(),
            x if x == x.trunc() && x.abs() < 1e15 => self.token(format_args!("{}", x as i64)),
            x => self.token(format_args!("{x}")),
        }
    }

    /// `n / 10^decimals` exactly, with `decimals` (≥ 1) fraction digits:
    /// nanoseconds as microseconds without an `f64` round trip.
    pub fn scaled(&mut self, n: u64, decimals: u32) -> &mut Self {
        let unit = 10u64.pow(decimals);
        let width = decimals as usize;
        self.token(format_args!("{}.{:0width$}", n / unit, n % unit))
    }

    /// The written text, without a trailing newline (one record of a
    /// larger document).
    pub fn into_string(self) -> String {
        self.out
    }

    /// The written document, newline-terminated.
    pub fn finish(self) -> String {
        self.out + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -1.5e2 ").unwrap(), Json::Num(-150.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".to_string())
        );
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, {"b": null}, "x"], "c": false}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[1].get("b").unwrap().is_null());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123abc").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "line\n\"quoted\"\tback\\slash\u{1}";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap(), Json::Str(nasty.to_string()));
    }

    fn one(value: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) -> String {
        let mut w = JsonWriter::compact();
        value(&mut w);
        w.into_string()
    }

    #[test]
    fn non_finite_floats_write_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(one(|w| w.fixed(x, 2)), "null");
            assert_eq!(one(|w| w.float(x)), "null");
        }
        assert_eq!(one(|w| w.fixed(1.5, 2)), "1.50");
        assert_eq!(one(|w| w.fixed(113.0, 0)), "113");
        assert_eq!(one(|w| w.float(3.0)), "3");
        assert_eq!(one(|w| w.float(-0.25)), "-0.25");
        assert_eq!(one(|w| w.float(1e15)), "1000000000000000");
    }

    #[test]
    fn integers_and_scaled_integers_are_exact() {
        let stamp = 1_700_000_000_123_456_789u64;
        assert_eq!(one(|w| w.int(stamp)), "1700000000123456789");
        assert_eq!(one(|w| w.int(u64::MAX)), u64::MAX.to_string());
        assert_eq!(one(|w| w.scaled(stamp, 3)), "1700000000123456.789");
        assert_eq!(one(|w| w.scaled(1_234_567, 3)), "1234.567");
        assert_eq!(one(|w| w.scaled(999, 3)), "0.999");
        assert_eq!(one(|w| w.scaled(1_000, 3)), "1.000");
    }

    #[test]
    fn strings_round_trip_through_parser() {
        let nasty = "line\n\"quoted\"\tback\\slash\u{1}\u{1f}\r/é";
        let mut w = JsonWriter::compact();
        w.begin_object().key(nasty).str(nasty).end_object();
        let v = Json::parse(&w.into_string()).unwrap();
        assert_eq!(v.get(nasty), Some(&Json::Str(nasty.to_string())));
    }

    /// The same nested document, with empty containers at every level,
    /// in both layouts.
    fn nested(mut w: JsonWriter) -> String {
        w.begin_object();
        w.key("a").begin_object().end_object();
        w.key("b").begin_array().end_array();
        w.key("c").begin_array().int(1);
        w.begin_object()
            .key("d")
            .begin_array()
            .end_array()
            .end_object();
        w.begin_array().bool(true).null().end_array();
        w.end_array();
        w.end_object();
        w.finish()
    }

    #[test]
    fn layouts_nest_and_close_empty_containers() {
        assert_eq!(
            nested(JsonWriter::compact()),
            "{\"a\":{},\"b\":[],\"c\":[1,{\"d\":[]},[true,null]]}\n"
        );
        let pretty = [
            "{",
            "  \"a\": {},",
            "  \"b\": [],",
            "  \"c\": [",
            "    1,",
            "    {",
            "      \"d\": []",
            "    },",
            "    [",
            "      true,",
            "      null",
            "    ]",
            "  ]",
            "}",
            "",
        ];
        assert_eq!(nested(JsonWriter::pretty()), pretty.join("\n"));
        assert_eq!(one(|w| w.begin_array().end_array()), "[]");
    }

    #[test]
    fn members_keep_the_order_written() {
        let mut w = JsonWriter::compact();
        w.begin_object();
        for key in ["zeta", "alpha", "mid"] {
            w.key(key).int(0);
        }
        w.end_object();
        assert_eq!(w.into_string(), "{\"zeta\":0,\"alpha\":0,\"mid\":0}");
    }
}
