//! A small, dependency-free JSON value with a strict parser and a
//! deterministic encoder, and the writer and pull reader both are built on.
//!
//! The workspace carries no serde (the build environment is offline), so
//! the wire layer hand-rolls the little JSON it needs. Two properties
//! matter more than generality:
//!
//! * **round-trip exactness for `f64`** — a number is written as Rust's
//!   `{}` `Display` writes it, the shortest decimal that parses back to the
//!   same bits, so a tuple's ordinal values survive a client → server →
//!   client trip bit-identically (the loopback proof leans on this);
//! * **determinism** — object members encode in key order (a [`Json::Obj`]
//!   is a `BTreeMap`) and the encoder has no configuration, so identical
//!   values produce identical bytes on every platform.
//!
//! The number and escape rules live in one writer (`write_num`,
//! `write_str`, objects through `write_obj`) that [`Json::encode`] runs on,
//! and the grammar in one pull `Reader` that [`parse`] runs on. The edge
//! writes every body through that writer without building a [`Json`] tree,
//! so each is byte for byte what the tree would encode, and reads its
//! per-call bodies through the reader, refused exactly where the tree
//! would refuse them.
//!
//! `write_num` does not go through `Display` and its formatting
//! machinery: an integer below 2^53 is written from its digits, and any
//! other number by a shortest-digit kernel (`shortest`: Ryū's arithmetic
//! over tables of powers of five derived at compile time) laid out in
//! `Display`'s fixed notation. The bytes are `Display`'s for every finite
//! `f64`, which a release-mode sweep over random bit patterns checks
//! (`write_num_is_display_over_random_bits`).
//!
//! The reader costs a few byte tests a step. A step returns its value or a
//! zero-sized `Stop` tag; the `ParseError` behind it is built once, in a
//! cold function, and kept in the reader until `Reader::read` returns it.
//! Keys and strings are borrowed from the text unless they hold an escape.
//! A number's digits are read eight at a time, and a number whose digits,
//! read as an integer, and whose power of ten are both exact in an `f64`
//! is that one division, correctly rounded as `str::parse` rounds it; any
//! other number goes to `str::parse`. About three numbers in four that the
//! `edge_front` and `remote_site` benchmarks read take the division. Two
//! release-mode sweeps hold the number path to `str::parse`
//! (`write_num_is_display_over_random_bits` reads back what the writer
//! writes, `numbers_read_as_str_parse_reads_them` random digit strings), and
//! `tests/golden/reader_verdicts.txt` holds every reader's verdicts on a
//! fixed corpus to what they were before the reader was made cheap. The
//! client's read of an `edge_front` reply (25 hits) fell from about 19 to
//! about 12 µs (README, "Where `edge_front`'s time goes").
//!
//! Non-finite numbers have no JSON spelling; the encoder writes `null` and
//! the domain layer (`crate::wire`) keeps them out of the protocol.

mod shortest;

use std::borrow::Cow;
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

/// 2^53: every integer up to it is exact in an `f64`.
const EXACT: f64 = 9.007_199_254_740_992e15;

/// `n` as a counter: a non-negative integer no larger than 2^53.
fn exact_u64(n: f64) -> Option<u64> {
    // Below 2^53 the integer part converts back exactly: `n` is whole iff
    // it equals it (a test with no call to `trunc`, which baseline x86-64
    // makes a library call).
    ((0.0..=EXACT).contains(&n) && (n as u64) as f64 == n).then_some(n as u64)
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
    /// fractional part no larger than 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
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

    /// Append the compact encoding to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_arr(out, items, |out, v| v.encode_into(out)),
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

// ----------------------------------------------------------------- writer

/// Append `n`: `null` if it is not finite, else the shortest decimal that
/// parses back to the same bits, byte for byte as Rust's `{}` `Display`
/// writes it. An integer below 2^53 in magnitude is its digits, written
/// straight from the integer; anything else goes through the
/// shortest-digit kernel. `-0.0` is `-0`.
pub(crate) fn write_num(out: &mut String, n: f64) {
    let a = n.abs();
    if !n.is_finite() {
        out.push_str("null");
    } else if a < EXACT && (a as u64) as f64 == a && !(n == 0.0 && n.is_sign_negative()) {
        // Whole by the round trip `exact_u64` tests, with no `trunc` call.
        if n < 0.0 {
            out.push('-');
        }
        write_digits(out, a as u64);
    } else {
        shortest::write_shortest(out, n);
    }
}

/// Append the counter `n`, as [`write_num`] writes `n as f64`.
pub(crate) fn write_u64(out: &mut String, n: u64) {
    if (n as f64) < EXACT {
        write_digits(out, n);
    } else {
        write_num(out, n as f64);
    }
}

fn write_digits(out: &mut String, n: u64) {
    out.push_str(digits(n, &mut [0; 20]));
}

/// Two ASCII digits for each number below 100.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// `n`'s decimal digits, written two at a time at the end of `buf`: the
/// one digit writer of the crate (numbers, shortest-digit mantissas, HTTP
/// lengths and status codes).
pub(crate) fn digits(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// Append `true` or `false`.
pub(crate) fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Append `s` as a JSON string: quoted, with quotes, backslashes and
/// control characters escaped. Everything between two escapes is copied as
/// one run.
pub(crate) fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte that ends a run is ASCII, so runs split `s` on
        // character boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append an array: `each` writes one item.
pub(crate) fn write_arr<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// Append an object whose members `members` writes through an
/// [`ObjWriter`].
pub(crate) fn write_obj(out: &mut String, members: impl FnOnce(&mut ObjWriter)) {
    out.push('{');
    members(&mut ObjWriter { out, last: None });
    out.push('}');
}

/// A body: the object whose members `members` writes, in a `String` that
/// reserves `capacity` bytes up front.
pub(crate) fn object(capacity: usize, members: impl FnOnce(&mut ObjWriter)) -> String {
    let mut out = String::with_capacity(capacity);
    write_obj(&mut out, members);
    out
}

/// An object's members being written: each [`ObjWriter::key`] starts a
/// member whose value the caller then writes. Members must come in
/// ascending key order, the order a [`Json::Obj`] encodes in, so that what
/// is written here is byte for byte the tree's encoding; debug builds
/// assert it.
pub(crate) struct ObjWriter<'a> {
    out: &'a mut String,
    last: Option<&'static str>,
}

impl ObjWriter<'_> {
    /// Start the member `key` (a plain ASCII name, after every key before
    /// it) and return the buffer its value goes into.
    pub(crate) fn key(&mut self, key: &'static str) -> &mut String {
        debug_assert!(
            self.last.is_none_or(|last| last < key),
            "{key} out of order"
        );
        debug_assert!(key
            .bytes()
            .all(|b| b.is_ascii_graphic() && !matches!(b, b'"' | b'\\')));
        if self.last.is_some() {
            self.out.push(',');
        }
        self.last = Some(key);
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }
}

// ----------------------------------------------------------------- reader

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

/// Arrays and objects may nest this deep. The reader recurses once per
/// level, so an unbounded `[[[[…` inside the body cap would overflow the
/// stack and abort the process; `/v1/rerank` bodies nest 4 deep.
pub const MAX_DEPTH: usize = 64;

/// Parse one JSON document; trailing non-whitespace and nesting beyond
/// [`MAX_DEPTH`] are errors.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    Reader::read(input, Reader::value)
}

/// A [`Reader`] step found that the text is not JSON. The reader keeps
/// what went wrong and where; [`Reader::read`] hands it out as the
/// [`ParseError`]. A step's `Result` is thus a tag, not a 32-byte error
/// copied up through every level of the walk.
#[derive(Debug)]
pub(crate) struct Stop;

/// What a [`Reader`] step returns.
pub(crate) type Step<T> = Result<T, Stop>;

/// The exact powers of ten an `f64` holds: `10^22` is the last.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The value of the eight bytes at the start of `bytes`, if they are all
/// ASCII digits: tested and summed as one word, the most significant digit
/// first in memory (the SWAR digit parse of fast float readers).
#[inline(always)]
fn eight_digits(bytes: &[u8]) -> Option<u64> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    let word = u64::from_le_bytes(bytes.get(..8)?.try_into().expect("eight bytes"));
    let value = word.wrapping_sub(ONES * u64::from(b'0'));
    // A byte below `0` borrows into its top bit; one above `9` carries.
    if (value | word.wrapping_add(ONES * 0x46)) & (ONES << 7) != 0 {
        return None;
    }
    let pairs = (value.wrapping_mul(10) + (value >> 8)) & 0x00ff_00ff_00ff_00ff;
    let quads = (pairs.wrapping_mul(100) + (pairs >> 16)) & 0x0000_ffff_0000_ffff;
    Some((quads.wrapping_mul(10_000) + (quads >> 32)) & 0xffff_ffff)
}

/// A pull reader over one JSON document. The caller asks for the value it
/// expects next; the reader checks the text on the way and builds nothing
/// it is not asked for. A value of another kind than the one asked for is
/// skipped whole (and checked) and reported as `None`, so a caller that
/// refuses what it read still reads on to the end, and text that is not
/// JSON is an `Err` wherever in the document it sits.
///
/// [`parse`] is this reader building a [`Json`] tree, so the grammar —
/// [`MAX_DEPTH`], escapes and surrogates, number syntax, trailing bytes —
/// is written once. A caller that keeps a later duplicate member over an
/// earlier one and skips members it does not know reads what the tree
/// holds. What a step costs is in the module docs.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// An array or object was just opened: the next [`Reader::item`] or
    /// [`Reader::key`] looks for its first member, not for a comma.
    fresh: bool,
    /// Why the text is not JSON, once a step has found that it is not.
    error: Option<ParseError>,
}

impl<'a> Reader<'a> {
    /// Read the whole of `text` with `read`, which takes one value; what
    /// follows it may only be whitespace.
    pub(crate) fn read<T>(
        text: &'a str,
        read: impl FnOnce(&mut Reader<'a>) -> Step<T>,
    ) -> Result<T, ParseError> {
        let mut r = Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
            error: None,
        };
        let value = read(&mut r).and_then(|value| {
            r.skip_ws();
            if r.pos == text.len() {
                Ok(value)
            } else {
                Err(r.fail("trailing characters after JSON value"))
            }
        });
        value.map_err(|Stop| r.error.take().expect("a stop records its error"))
    }

    /// Record that the text is not JSON at `pos`, for `message`.
    #[cold]
    #[inline(never)]
    fn fail(&mut self, message: &str) -> Stop {
        self.error = Some(ParseError {
            message: message.to_string(),
            at: self.pos,
        });
        Stop
    }

    #[cold]
    fn too_deep(&mut self) -> Stop {
        self.fail(&format!("nesting deeper than {MAX_DEPTH}"))
    }

    /// The byte at `pos` is not `b`, or the text there does not spell the
    /// literal `b`.
    #[cold]
    fn expected(&mut self, b: impl fmt::Display) -> Stop {
        self.fail(&format!("expected '{b}'"))
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Step<()> {
        if self.peek() != Some(b) {
            return Err(self.expected(char::from(b)));
        }
        self.pos += 1;
        Ok(())
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    /// The byte after whitespace: the first of the next value, if it is
    /// one. A reader that asks for a kind of value takes it from here, and
    /// hands any other byte to [`Reader::skip`], which checks it.
    #[inline]
    fn next(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    /// The first byte of the next value, past whitespace.
    #[inline]
    fn start(&mut self) -> Step<u8> {
        match self.next() {
            Some(b @ (b'n' | b't' | b'f' | b'"' | b'[' | b'{' | b'-' | b'0'..=b'9')) => Ok(b),
            Some(_) => Err(self.fail("unexpected character")),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    /// Step into the array or object at `pos`.
    #[inline]
    fn open(&mut self) -> Step<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.pos += 1;
        self.fresh = true;
        Ok(())
    }

    /// Step out past the closing bracket at `pos`.
    #[inline]
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    /// If the next value is an object, open it for [`Reader::key`] and
    /// return true; otherwise skip it and return false.
    #[inline]
    pub(crate) fn object(&mut self) -> Step<bool> {
        match self.next() {
            Some(b'{') => self.open().map(|()| true),
            _ => self.skip().map(|()| false),
        }
    }

    /// The next key of the object opened last, its `:` consumed so that
    /// the caller reads its value next; `None` once the object is closed.
    #[inline(always)]
    pub(crate) fn key(&mut self) -> Step<Option<Cow<'a, str>>> {
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            _ if fresh => {}
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => return Err(self.fail("expected ',' or '}'")),
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// If the next value is an array, open it for [`Reader::item`] and
    /// return true; otherwise skip it and return false.
    #[inline]
    pub(crate) fn array(&mut self) -> Step<bool> {
        match self.next() {
            Some(b'[') => self.open().map(|()| true),
            _ => self.skip().map(|()| false),
        }
    }

    /// Whether the array opened last has another item, which the caller
    /// then reads; false once the array is closed.
    #[inline]
    pub(crate) fn item(&mut self) -> Step<bool> {
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.fail("expected ',' or ']'")),
        }
    }

    /// The next value if it is a number, else skip it: `None`.
    #[inline]
    pub(crate) fn f64(&mut self) -> Step<Option<f64>> {
        match self.next() {
            Some(b'-' | b'0'..=b'9') => self.number().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// The next value if it is a counter, as [`Json::as_u64`] reads one,
    /// else skip it: `None`.
    #[inline]
    pub(crate) fn u64(&mut self) -> Step<Option<u64>> {
        Ok(self.f64()?.and_then(exact_u64))
    }

    /// The next value if it is a string, else skip it: `None`. Borrowed
    /// from the text unless it holds an escape.
    #[inline]
    pub(crate) fn str(&mut self) -> Step<Option<Cow<'a, str>>> {
        match self.next() {
            Some(b'"') => self.string().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// The next value if it is `true` or `false`, else skip it: `None`.
    pub(crate) fn bool(&mut self) -> Step<Option<bool>> {
        match self.next() {
            Some(b't') => self.literal("true").map(|()| Some(true)),
            Some(b'f') => self.literal("false").map(|()| Some(false)),
            _ => self.skip().map(|()| None),
        }
    }

    /// Check the next value and move past it.
    pub(crate) fn skip(&mut self) -> Step<()> {
        match self.start()? {
            b'n' => self.literal("null"),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'"' => self.string().map(drop),
            b'[' => {
                self.open()?;
                while self.item()? {
                    self.skip()?;
                }
                Ok(())
            }
            b'{' => {
                self.open()?;
                while self.key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            _ => self.number().map(drop),
        }
    }

    /// The next value, as a tree.
    pub(crate) fn value(&mut self) -> Step<Json> {
        match self.start()? {
            b'n' => self.literal("null").map(|()| Json::Null),
            b't' => self.literal("true").map(|()| Json::Bool(true)),
            b'f' => self.literal("false").map(|()| Json::Bool(false)),
            b'"' => self.string().map(|s| Json::Str(s.into_owned())),
            b'[' => {
                self.open()?;
                let mut items = Vec::new();
                while self.item()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            b'{' => {
                self.open()?;
                let mut members = BTreeMap::new();
                while let Some(key) = self.key()? {
                    let value = self.value()?;
                    members.insert(key.into_owned(), value);
                }
                Ok(Json::Obj(members))
            }
            _ => self.number().map(Json::Num),
        }
    }

    fn literal(&mut self, word: &str) -> Step<()> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.expected(word))
        }
    }

    #[inline(always)]
    fn string(&mut self) -> Step<Cow<'a, str>> {
        self.expect(b'"')?;
        // Only a string with an escape in it is copied.
        let mut owned: Option<String> = None;
        loop {
            // Everything up to the next quote or backslash is one run.
            // Both are ASCII, so the run starts and ends on a character
            // boundary of the `&str` being read, and a string costs its
            // own length, not the input's.
            let (text, start) = (self.text, self.pos);
            let rest = &text.as_bytes()[start..];
            let stop = rest.iter().position(|&b| b == b'"' || b == b'\\');
            self.pos = start + stop.unwrap_or(rest.len());
            let run = &text[start..self.pos];
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                _ => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.escape(s)?;
                }
            }
        }
    }

    /// Decode the escape at `pos` (its backslash) onto `s`.
    #[inline(never)]
    fn escape(&mut self, s: &mut String) -> Step<()> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                s.push(self.unicode()?);
                return Ok(());
            }
            _ => return Err(self.fail("invalid escape")),
        };
        s.push(c);
        self.pos += 1;
        Ok(())
    }

    /// The character of the `\u` escape whose hex digits start at `pos`.
    /// Surrogate pairs: a high surrogate must be followed by an escaped low
    /// surrogate.
    fn unicode(&mut self) -> Step<char> {
        let cp = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&cp) {
            if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                return Err(self.fail("unpaired high surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.fail("invalid low surrogate"));
            }
            char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
        } else {
            char::from_u32(cp)
        };
        c.ok_or_else(|| self.fail("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Step<u32> {
        let Some(hex) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(self.fail("truncated unicode escape"));
        };
        let hex = std::str::from_utf8(hex).ok();
        let cp = hex.and_then(|hex| u32::from_str_radix(hex, 16).ok());
        let cp = cp.ok_or_else(|| self.fail("bad unicode escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// The number at `pos`: `-`, digits, `.` and digits, then `e` or `E`
    /// with a sign and digits, each part optional, read as `str::parse`
    /// reads it. Its digits are gathered on the way; when there are some,
    /// no exponent, and both the digits as an integer and the power of ten
    /// they are divided by are exact in an `f64`, the one rounding of that
    /// division is the correctly rounded value `str::parse` returns, and the
    /// text is not read twice.
    #[inline]
    fn number(&mut self) -> Step<f64> {
        let (bytes, start) = (self.text.as_bytes(), self.pos);
        let negative = bytes[start] == b'-';
        let mut at = start + usize::from(negative);
        // The digits as an integer: exact while there are fewer than 20.
        let mut digits = 0u64;
        let mut run = |at: &mut usize| {
            let from = *at;
            while let Some(eight) = eight_digits(&bytes[*at..]) {
                digits = digits.wrapping_mul(100_000_000).wrapping_add(eight);
                *at += 8;
            }
            while let Some(&b @ b'0'..=b'9') = bytes.get(*at) {
                digits = digits.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                *at += 1;
            }
            *at - from
        };
        let mut count = run(&mut at);
        let mut scale = 0;
        if bytes.get(at) == Some(&b'.') {
            at += 1;
            scale = run(&mut at);
            count += scale;
        }
        let exponent = matches!(bytes.get(at), Some(b'e' | b'E'));
        if exponent {
            at += 1;
            if let Some(b'+' | b'-') = bytes.get(at) {
                at += 1;
            }
            while let Some(b'0'..=b'9') = bytes.get(at) {
                at += 1;
            }
        }
        self.pos = at;
        if !exponent && (1..20).contains(&count) && digits <= 1 << 53 && scale < POW10.len() {
            let n = match scale {
                0 => digits as f64,
                _ => digits as f64 / POW10[scale],
            };
            return Ok(if negative { -n } else { n });
        }
        // Every byte stepped over is ASCII: the slice of the `&str` needs no
        // second UTF-8 check.
        let text = &self.text[start..at];
        text.parse::<f64>().map_err(|_| self.fail("bad number"))
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

    fn assert_written_as_display(n: f64) {
        let mut out = String::new();
        write_num(&mut out, n);
        let want = if n.is_finite() {
            n.to_string()
        } else {
            "null".into()
        };
        assert_eq!(out, want, "{n:?} (bits {:#018x})", n.to_bits());
    }

    /// The digit count of `n`'s shortest round-trip form.
    fn shortest_len(n: f64) -> usize {
        let e = format!("{:e}", n.abs());
        e.split('e').next().unwrap().replace('.', "").len()
    }

    /// The writer spells every number as `Display` does, through the
    /// integer path or the shortest-digit kernel: the edges of both, the
    /// classes where a shortest-digit kernel goes wrong, and random bit
    /// patterns.
    #[test]
    fn numbers_are_written_as_display_writes_them() {
        let two53 = 2f64.powi(53);
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            two53 - 1.0,
            -(two53 - 1.0),
            two53,
            -two53,
            two53 + 2.0,
            1e300,
            -1e300,
            5e-324,
            0.1,
            123.456,
            1e15,
            1e21,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ];
        // Every power of ten an `f64` comes nearest to, and every power of
        // two, normal and subnormal.
        let tens = (-323..=308).map(|k: i32| format!("1e{k}").parse::<f64>().unwrap());
        let twos = (-1074..=1023).map(|k| 2f64.powi(k));
        // Both sides of the subnormal/normal boundary: the largest
        // subnormals, the smallest normals.
        let boundary = (0x000f_ffff_ffff_fff0..0x0010_0000_0000_0010).map(f64::from_bits);
        // Where the integer path hands over: odd integers above 2^53 do not
        // exist, and an integer's spelling no longer comes from its digits.
        let handover = (-2..=4).map(|d| two53 + d as f64);
        // Decimals with no exact binary form, and their bit neighbours.
        let tenths = [0.1, 0.2, 0.3].into_iter().flat_map(|x: f64| {
            let bits = x.to_bits();
            (bits - 3..=bits + 3).map(f64::from_bits)
        });
        // Values whose shortest form needs 15, 16 and 17 digits.
        let long = [
            1.234_567_890_123_45,
            0.1 + 0.7,
            2.0 / 3.0,
            1.0 / 3.0,
            0.1 + 0.2,
            9_007_199_254_740_993.0,
            1.797_693_134_862_315_7e308,
        ];
        let mut state = 0x5EED_u64;
        let random = (0..20_000).map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            f64::from_bits(state)
        });
        let all = edges
            .into_iter()
            .chain(tens)
            .chain(twos)
            .chain(boundary)
            .chain(handover)
            .chain(tenths)
            .chain(long)
            .chain(random);
        let mut lengths = [0usize; 18];
        for n in all {
            assert_written_as_display(n);
            assert_written_as_display(-n);
            if n.is_finite() {
                lengths[shortest_len(n)] += 1;
            }
        }
        for digits in [15, 16, 17] {
            assert!(lengths[digits] > 0, "no value of {digits} digits");
        }
        // A value exactly halfway between its two shortest candidates
        // rounds up: 2^-25 is 0.0000000298023223876953125.
        let mut out = String::new();
        write_num(&mut out, 2f64.powi(-25));
        assert_eq!(out, "0.000000029802322387695313");
        assert_eq!(Json::Num(-0.0).encode(), "-0");
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(n).encode(), "null");
        }
        for n in [0, 7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, n);
            assert_eq!(out, Json::u64(n).encode(), "{n}");
        }
    }

    /// SplitMix64 seeded by `QRS_TEST_SEED` (0 unset) and `salt`, and the
    /// draws `QRS_FUZZ_ITERS` asks for: 1 000 an iteration, 48 iterations
    /// unset. CI runs 10^7 draws a seed in release.
    fn sweep(salt: u64) -> (u64, u64, impl FnMut() -> u64) {
        let env = |key: &str| std::env::var(key).ok().and_then(|v| v.parse::<u64>().ok());
        let seed = env("QRS_TEST_SEED").unwrap_or(0);
        let draws = 1000 * env("QRS_FUZZ_ITERS").unwrap_or(48);
        let mut state = seed ^ salt;
        let next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (seed, draws, next)
    }

    /// `write_num` against `Display` over random draws ([`sweep`]): half
    /// uniform bit patterns, half a mantissa of few significant bits at a
    /// random exponent, where exact halfway cases and exact interval ends
    /// live, each beside a uniform draw from `[0, 1)` scaled as a site's
    /// values and scores are. Every number written reads back to its own
    /// bits, the read half of the round trip the loopback proof leans on.
    #[test]
    fn write_num_is_display_over_random_bits() {
        let (seed, draws, mut next) = sweep(0x7F4A_7C15_F39C_C060);
        let mut out = String::new();
        for draw in 0..draws {
            let r = next();
            let bits = if draw % 2 == 0 {
                r
            } else {
                // An odd multiplier shifted up: the mantissa's low bits are
                // zero, the exponent field anything.
                let mantissa = ((r | 1) << (r >> 58)) & ((1 << 52) - 1);
                (r & (0xfff << 52)) | mantissa
            };
            let scaled =
                (r >> 11) as f64 / (1u64 << 53) as f64 * [1e-3, 1.0, 250.0, 1e6][(r & 3) as usize];
            for n in [f64::from_bits(bits), scaled] {
                if !n.is_finite() {
                    continue;
                }
                out.clear();
                write_num(&mut out, n);
                let back = Reader::read(&out, Reader::f64).map(|n| n.map(f64::to_bits));
                if out != n.to_string() || back != Ok(Some(n.to_bits())) {
                    panic!(
                        "QRS_TEST_SEED={seed} draw {draw}: {n:?} (bits {:#018x}) written {out}, read back {back:?}",
                        n.to_bits()
                    );
                }
            }
        }
    }

    /// What the reader makes of `text`, a number token, against
    /// `str::parse`: the same bits, or a refusal at the token's end.
    fn read_as_str_parse(text: &str, context: impl FnOnce() -> String) {
        let read = Reader::read(text, Reader::f64);
        let same = match (&read, text.parse::<f64>()) {
            (Ok(Some(got)), Ok(want)) => got.to_bits() == want.to_bits(),
            (Err(e), Err(_)) => e.message == "bad number" && e.at == text.len(),
            _ => false,
        };
        assert!(same, "{}: {text:?} read as {read:?}", context());
    }

    /// The reader's number path against `str::parse` over random digit
    /// strings ([`sweep`]) — 15- to 23-digit mantissas among them,
    /// fractions of every length, leading zeros, exponents and `-0` — read
    /// as `str::parse` reads them, refusals included. What `write_num`
    /// writes is read back in `write_num_is_display_over_random_bits`.
    #[test]
    fn numbers_read_as_str_parse_reads_them() {
        let (seed, draws, mut next) = sweep(0x2F6E_A1D4_5B38_C907);
        // Past 19 digits the digits wrap a `u64`: 2^64 + 1 wraps to 1.
        let corners = [
            "0", "-0", "-0.0", "0.", "-", "-.", "-.5", "1e", "1e+", "-e5", "00.5e-0",
        ];
        let wraps = ["18446744073709551617", "-1844674407370955161.7"];
        for text in corners.into_iter().chain(wraps) {
            read_as_str_parse(text, || "corner".into());
        }
        let mut token = String::new();
        for draw in 0..draws {
            let context = || format!("QRS_TEST_SEED={seed} draw {draw}");
            // A sign, then digits split around a point, then an exponent.
            let r = next();
            let digits = [1, 2, 3, 7, 15, 16, 17, 18, 19, 20, 23, 0][(r % 12) as usize];
            let negative = r >> 8 & 1 == 1;
            let point = r >> 9 & 3 != 0;
            let before = match point {
                true => (r >> 16) as usize % (digits + 1),
                false => digits,
            };
            let before = if negative { before } else { before.max(1) };
            token.clear();
            if negative {
                token.push('-');
            }
            let mut d = next();
            for i in 0..digits.max(before) {
                if i == before {
                    token.push('.');
                }
                // Zeros one time in four: leading, trailing and `-0`.
                let digit = if d & 3 == 0 { 0 } else { (d >> 2) % 10 };
                token.push(char::from(b'0' + digit as u8));
                d = d.rotate_right(7) ^ r;
            }
            if point && before == digits {
                token.push('.');
            }
            if r >> 11 & 3 == 0 {
                token.push(if r >> 13 & 1 == 0 { 'e' } else { 'E' });
                token.push_str(["", "+", "-"][(r >> 14) as usize % 3]);
                for _ in 0..(r >> 20) % 4 {
                    token.push(char::from(b'0' + (d % 10) as u8));
                    d /= 10;
                }
            }
            read_as_str_parse(&token, context);
        }
    }

    /// Eight bytes read as digits only when each is `0` to `9`: the bytes
    /// just outside that range, and bytes past ASCII, fail in every place.
    #[test]
    fn eight_bytes_are_digits_only_when_each_is_one() {
        assert_eq!(eight_digits(b"12345678"), Some(12_345_678));
        assert_eq!(eight_digits(b"00000009x"), Some(9));
        assert_eq!(eight_digits(b"1234567"), None);
        for at in 0..8 {
            for b in [b'/', b':', b'.', b'e', 0x80, 0xff] {
                let mut word = *b"99999999";
                word[at] = b;
                assert_eq!(eight_digits(&word), None, "{word:?}");
            }
        }
    }

    /// Escapes are written in runs, the same bytes as one char at a time.
    #[test]
    fn strings_escape_in_runs() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\re\tf\u{1}\u{1f}\u{7f}é😀");
        // DEL and everything past ASCII are not control characters.
        let want = "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001f\u{7f}é😀\"";
        assert_eq!(out, want);
        let mut empty = String::new();
        write_str(&mut empty, "");
        assert_eq!(empty, "\"\"");
    }

    /// The pull reader keeps the tree's rules: a later duplicate wins when
    /// the caller keeps the last one, unknown members skip, and a value of
    /// another kind is skipped whole and read as `None`.
    #[test]
    fn the_reader_reads_what_the_tree_holds() {
        let text = r#" {"n": 1, "skip": [{"x": [1, "\u00e9"]}], "n": 2.5, "s": "a\nb", "b": 3} "#;
        let (mut n, mut s, mut b) = (None, None, None);
        Reader::read(text, |r| {
            assert!(r.object()?);
            while let Some(key) = r.key()? {
                match &*key {
                    "n" => n = r.f64()?,
                    "s" => s = r.str()?.map(|s| s.into_owned()),
                    "b" => b = Some(r.bool()?),
                    _ => r.skip()?,
                }
            }
            Ok(())
        })
        .unwrap();
        let tree = parse(text).unwrap();
        assert_eq!(n, tree.get("n").and_then(Json::as_f64));
        assert_eq!(s.as_deref(), tree.get("s").and_then(Json::as_str));
        assert_eq!(b, Some(None), "a number is not a bool");
        // A skipped value is still checked, however deep.
        let bad = Reader::read(r#"{"a": [1, {"b": tru}]}"#, Reader::skip).unwrap_err();
        assert_eq!(bad, parse(r#"{"a": [1, {"b": tru}]}"#).unwrap_err());
        assert_eq!(
            Reader::read("[1] x", Reader::skip),
            Err(parse("[1] x").unwrap_err())
        );
    }
}
