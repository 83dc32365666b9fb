//! A small, dependency-free JSON value with a strict parser and a
//! deterministic encoder.
//!
//! The workspace carries no serde (the build environment is offline), so
//! the wire layer hand-rolls the little JSON it needs. Two properties
//! matter more than generality:
//!
//! * **round-trip exactness for `f64`** — numbers encode via Rust's `{}`
//!   `Display`, the shortest decimal that parses back to the same bits, so
//!   a tuple's ordinal values survive a client → server → client trip
//!   bit-identically (the loopback proof leans on this);
//! * **determinism** — object members encode in insertion order and the
//!   encoder has no configuration, so identical values produce identical
//!   bytes on every platform.
//!
//! Non-finite numbers have no JSON spelling; the encoder writes `null` and
//! the domain layer (`crate::wire`) keeps them out of the protocol.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Objects are `BTreeMap`s: member lookup is what the wire layer does with
/// them, and a sorted map makes the *encoder* deterministic too (members
/// serialize in key order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; exact for integers up to
    /// 2^53, which covers every counter the protocol ships).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members sorted by key.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A `u64` counter (exact up to 2^53 — every ledger in the workspace
    /// is far below that; the encoder renders integral floats without a
    /// fraction part).
    pub fn u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Member of an object, if this is an object and the member exists.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with no
    /// fractional part in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, via [`Json::as_u64`].
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Encode to a compact JSON string (no whitespace).
    pub fn encode(&self) -> String {
        let mut s = String::new();
        self.encode_into(&mut s);
        s
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's Display prints the shortest decimal that
                    // round-trips to the same f64 — the exactness the
                    // loopback proof needs.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape_json_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json_into(out, k);
                    out.push_str("\":");
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` to `out` escaped as the *contents* of a JSON string (quotes,
/// backslashes, control chars; the caller writes the surrounding `"`).
fn escape_json_into(out: &mut String, s: &str) {
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
}

/// A malformed-JSON report: what went wrong and where (byte offset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset of the failure in the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Arrays and objects may nest this deep. The parser recurses once per
/// level, so an unbounded `[[[[…` inside the body cap would overflow the
/// stack and abort the process; `/v1/rerank` bodies nest 4 deep.
pub const MAX_DEPTH: usize = 64;

/// Parse one JSON document; trailing non-whitespace and nesting beyond
/// [`MAX_DEPTH`] are errors.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// `text`, as the bytes the parser steps through.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            at: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => s.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 advanced pos past the digits; undo the
                            // shared increment below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Everything up to the next quote or backslash is one
                    // run. Both are ASCII, so the run starts and ends on a
                    // character boundary of the `&str` being parsed, and a
                    // string costs its own length, not the input's.
                    let rest = &self.bytes[self.pos..];
                    let stop = rest.iter().position(|b| matches!(b, b'"' | b'\\'));
                    let end = self.pos + stop.unwrap_or(rest.len());
                    let run = self.text.get(self.pos..end);
                    s.push_str(run.ok_or_else(|| self.err("bad utf-8"))?);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad unicode escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad unicode escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Json::obj(vec![
            (
                "a",
                Json::Arr(vec![Json::u64(1), Json::Null, Json::Bool(true)]),
            ),
            ("s", Json::str("he\"llo\n\\\t\r")),
            ("n", Json::Num(-2.5)),
        ]);
        let text = v.encode();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn f64_display_round_trips_bit_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -123.456_789_012_345_67,
            2f64.powi(53),
        ] {
            let text = Json::Num(x).encode();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn non_finite_encodes_as_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""Aé😀""#).unwrap(), Json::Str("Aé😀".to_string()));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
        // Control characters encode escaped and parse back.
        let s = Json::Str("\u{1}".into()).encode();
        assert_eq!(s, "\"\\u0001\"");
        assert_eq!(parse(&s).unwrap(), Json::Str("\u{1}".into()));
    }

    /// Parsing a string used to re-validate the rest of the input per
    /// character; at that cost this test runs for minutes.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let unit = "plain é ‰ 😀 \"quoted\" back\\slash \n\t\u{1} / ";
        let long = unit.repeat((512 << 10) / unit.len() + 1);
        assert!(long.len() >= 512 << 10);
        let value = Json::Arr(vec![Json::str(long.clone()), Json::str("tail")]);
        assert_eq!(parse(&value.encode()).unwrap(), value);
        // Escapes the encoder never writes, between runs of every width.
        let text = r#""a\/é\u00e9‰😀\ud83d\ude00\b""#;
        assert_eq!(parse(text).unwrap(), Json::str("a/éé‰😀😀\u{8}"));
        let mib = format!("\"{}\"", "x".repeat(1 << 20));
        assert_eq!(parse(&mib).unwrap().as_str().map(str::len), Some(1 << 20));
        // A run that meets the end of input is still an unterminated string.
        assert!(parse("\"abc é").is_err());
    }

    #[test]
    fn malformed_inputs_report_position() {
        for bad in ["{", "[1,", "tru", "\"abc", "{\"a\" 1}", "1 2", "01x"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let e = parse("[1, @]").unwrap_err();
        assert_eq!(e.at, 4);
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH).replace(":}", ":1}")).is_ok());
        let e = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (e.at, e.message.as_str()),
            (MAX_DEPTH, "nesting deeper than 64")
        );
        // What used to overflow the stack: a megabyte of unclosed brackets.
        for open in ["[", "{\"a\":", "[{\"a\":"] {
            assert!(parse(&open.repeat(1 << 20)).is_err(), "{open}");
        }
        // Depth is how deep, not how many: siblings do not add up.
        assert!(parse(&format!("[{}]", vec!["[[1]]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn accessor_helpers() {
        let v = parse(r#"{"n": 3, "s": "x", "b": false, "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
