//! A small, dependency-free JSON document model with a writer and a
//! recursive-descent parser that borrows from its input.
//!
//! The offline vendor set has no `serde_json` (the vendored `serde` shim is
//! declaration-only), so the wire protocol serializes through this module.
//! Design points that matter for the protocol:
//!
//! * **Lossless numbers.** [`Json::Num`] stores the number as its literal
//!   text, so `u64` nanosecond counters and fingerprints round-trip exactly
//!   (an `f64` model would corrupt values above 2⁵³). The parser accepts
//!   only JSON's number grammar: no leading zeros, and a `.` or exponent
//!   marker must be followed by a digit.
//! * **Order-preserving objects.** Members are kept in insertion order in a
//!   `Vec`, so encode output is deterministic — responses can be compared
//!   byte-for-byte in the determinism tests.
//! * **Borrowed text.** [`Json::parse`] takes a `&str`, so a frame's UTF-8
//!   is checked once, when its bytes become that `&str`
//!   ([`crate::wire`] does it once per frame), and never again per string.
//!   Every string, number and key without an escape is a
//!   [`Cow::Borrowed`] slice of the input. Only a string with an escape
//!   (constraint text, whose lines are joined by `\n`) is unescaped into an
//!   owned `String`, allocated once at its final size. Each array and
//!   object is allocated once too, at its final length, from the parse's
//!   working stacks. Encoders build trees that borrow the message they
//!   encode. So the copies left are the unescaped strings and the owned
//!   wire structs the decoders build, which copy each borrowed string they
//!   keep once and move each unescaped one ([`Json::take`]).
//! * **Word-at-a-time strings.** The parser and the writer find the end of
//!   a run of plain string bytes eight bytes at a time, since constraint
//!   text, schemes and sketches make up most of every frame.
//! * **UTF-8 passthrough.** The writer escapes only what JSON requires
//!   (quotes, backslash, control characters); constraint text full of `σ`
//!   and `⊑` stays readable on the wire. The parser accepts `\uXXXX`
//!   escapes, including surrogate pairs, for interoperability.

use std::borrow::Cow;
use std::fmt;

/// Maximum container nesting the parser accepts. The parser is recursive,
/// so without a bound a hostile peer could overflow the thread stack (and a
/// stack overflow aborts the whole process) with a frame of repeated `[`
/// bytes; 128 levels is far beyond anything the protocol emits.
pub const MAX_DEPTH: usize = 128;

/// A JSON value whose text borrows from `'a`: the parsed input, or the
/// message an encoder reads.
#[derive(Clone, Debug, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal text (lossless round-trip).
    Num(Cow<'a, str>),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, members in insertion order.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// An unsigned-integer number value.
    pub fn u64(x: u64) -> Json<'a> {
        Json::Num(x.to_string().into())
    }

    /// A `usize` number value.
    pub fn usize(x: usize) -> Json<'a> {
        Json::Num(x.to_string().into())
    }

    /// A float number value (Rust's shortest-round-trip `Display` form).
    pub fn f64(x: f64) -> Json<'a> {
        if x.is_finite() {
            Json::Num(format!("{x}").into())
        } else {
            // JSON has no Inf/NaN; null is the conventional stand-in.
            Json::Null
        }
    }

    /// A string value: borrowed from a `&str` or `&String`, owned from a
    /// `String`.
    pub fn str(s: impl Into<Cow<'a, str>>) -> Json<'a> {
        Json::Str(s.into())
    }

    /// The value as `u64`, if it is a number that parses as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a number that parses as one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object member lookup (first match; the protocol never emits
    /// duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the member [`Json::get`] would return out of the object,
    /// leaving `null` in its place, so a decoder keeps an unescaped string
    /// without copying it.
    pub fn take(&mut self, key: &str) -> Option<Json<'a>> {
        match self {
            Json::Obj(members) => members
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (must consume the whole input apart from
    /// trailing whitespace). The tree borrows every string, number and key
    /// that has no escape from `input`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first malformed byte.
    pub fn parse(input: &'a str) -> Result<Json<'a>, JsonError> {
        let mut p = Parser {
            text: input,
            pos: 0,
            depth: 0,
            items: Vec::new(),
            members: Vec::new(),
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }
}

/// Writes `s` as a JSON string. Runs of characters that need no escape
/// are copied whole; every byte that needs one is ASCII, so each run ends
/// on a character boundary.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    loop {
        let end = run + plain_len(&s.as_bytes()[run..]);
        out.push_str(&s[run..end]);
        let Some(&b) = s.as_bytes().get(end) else {
            break;
        };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run = end + 1;
    }
    out.push('"');
}

/// The length of the run at the start of `bytes` that a JSON string holds
/// as it is: everything before the first quote, backslash or control
/// byte. All three are ASCII, so the run ends on a character boundary.
///
/// Eight bytes are tested at a time: `(v - 0x01…) & !v & 0x80…` flags
/// each zero byte of the word `v`, and `(v - 0x20…) & !v & 0x80…` each
/// byte below 0x20. A borrow can also flag bytes above the first hit,
/// never below it, so the lowest flag is the first hit.
fn plain_len(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let below = |v: u64, n: u8| v.wrapping_sub(ONES * u64::from(n)) & !v;
    let mut chunks = bytes.chunks_exact(8);
    let mut done = 0;
    for chunk in chunks.by_ref() {
        let v = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
        let hits = (below(v ^ (ONES * u64::from(b'"')), 1)
            | below(v ^ (ONES * u64::from(b'\\')), 1)
            | below(v, 0x20))
            & HIGH;
        if hits != 0 {
            return done + hits.trailing_zeros() as usize / 8;
        }
        done += 8;
    }
    let tail = chunks.remainder();
    done + tail
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(tail.len())
}

/// A JSON parse error: what went wrong and the byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Current container nesting, checked against [`MAX_DEPTH`].
    depth: usize,
    /// The items of every open array, innermost last: an array's `Vec` is
    /// allocated once, at its final length, when it closes.
    items: Vec<Json<'a>>,
    /// The members of every open object, likewise.
    members: Vec<(Cow<'a, str>, Json<'a>)>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json<'a>) -> Result<Json<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs a container parser one nesting level deeper, refusing input
    /// past [`MAX_DEPTH`] so recursion depth stays bounded.
    fn nested(
        &mut self,
        f: fn(&mut Parser<'a>) -> Result<Json<'a>, JsonError>,
    ) -> Result<Json<'a>, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = f(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json<'a>, JsonError> {
        self.eat(b'[', "[")?;
        let base = self.items.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.drain(base..).collect()));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, JsonError> {
        self.eat(b'{', "{")?;
        let base = self.members.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', ":")?;
            self.skip_ws();
            let value = self.value()?;
            self.members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(self.members.drain(base..).collect()));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn number(&mut self) -> Result<Json<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        match self.digits() {
            0 => return Err(self.err("expected digits")),
            n if n > 1 && self.text.as_bytes()[int] == b'0' => {
                self.pos = int + 1;
                return Err(self.err("leading zero in number"));
            }
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        Ok(Json::Num(Cow::Borrowed(&self.text[start..self.pos])))
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Skips the bytes that stand for themselves inside a string.
    fn plain_run(&mut self) {
        self.pos += plain_len(&self.text.as_bytes()[self.pos..]);
    }

    /// A string literal: a slice of the input if it has no escape, else
    /// its unescaped text in one `String` sized for the literal.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"', "\"")?;
        let start = self.pos;
        self.plain_run();
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
            }
            Some(b'\\') => {}
            _ => return Err(self.err("unterminated string")),
        }
        // Unescaping never lengthens text, so the raw literal's length is
        // room enough.
        let mut out = String::with_capacity(self.pos - start + self.escaped_rest());
        out.push_str(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.err("unterminated string")),
            }
            let run = self.pos;
            self.plain_run();
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// The raw length of the rest of a string literal, from the current
    /// byte to its closing quote or to where it breaks off. Escapes are
    /// skipped unchecked here; [`Parser::escape`] checks them.
    fn escaped_rest(&self) -> usize {
        let rest = &self.text.as_bytes()[self.pos..];
        let mut i = 0;
        while rest.get(i) == Some(&b'\\') {
            i += 2;
            i += plain_len(rest.get(i..).unwrap_or_default());
        }
        i.min(rest.len())
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a following \uXXXX low surrogate.
                    self.eat(b'\\', "\\ of surrogate pair")?;
                    self.eat(b'u', "u of surrogate pair")?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for src in ["null", "true", "false", "0", "-17", "3.5", "1e9", "18446744073709551615"] {
            let v = Json::parse(src).unwrap();
            assert_eq!(v.encode(), src, "round-trip of {src}");
        }
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX),
            "u64::MAX survives (an f64 model would not)"
        );
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line1\nσ32@0 ⊑ \"quote\"\\tab\t";
        let v = Json::str(s);
        let enc = v.encode();
        assert_eq!(Json::parse(&enc).unwrap(), v);
        // Foreign escapes parse too.
        assert_eq!(
            Json::parse(r#""\u00e9\ud83d\ude00""#).unwrap().as_str(),
            Some("é😀")
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::str("corpus_0")),
            ("n".into(), Json::u64(42)),
            (
                "items".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::f64(0.5)]),
            ),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
        ]);
        let enc = v.encode();
        assert_eq!(Json::parse(&enc).unwrap(), v);
        assert_eq!(enc, Json::parse(&enc).unwrap().encode(), "deterministic");
    }

    #[test]
    fn errors_are_reported() {
        for bad in ["", "{", "[1,", "\"unterminated", "{\"a\" 1}", "tru", "01x", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
        // Numbers outside JSON's grammar: leading zeros, and a `.` without
        // a digit after it.
        for bad in ["01", "-01", "1.", "1.e5", "[00]", "{\"a\":-0.}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
        for good in ["0", "-0", "0.5", "-0.0e+1", "10", "1E-7"] {
            assert_eq!(Json::parse(good).unwrap().encode(), good);
        }
    }

    #[test]
    fn plain_len_matches_a_bytewise_scan() {
        let bytewise = |bytes: &[u8]| {
            bytes
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(bytes.len())
        };
        // Every byte value at every offset of two words and a tail, after
        // plain bytes on both sides of 0x20 and 0x80, with a later hit
        // that a borrow could otherwise mask.
        for fill in [b'a', b' ', 0x7f, 0x80, 0xe2, 0xff] {
            for at in 0..19 {
                for b in 0..=255u8 {
                    let mut bytes = vec![fill; 19];
                    bytes[at] = b;
                    bytes[18] = b'"';
                    assert_eq!(plain_len(&bytes), bytewise(&bytes), "{bytes:?}");
                    assert_eq!(plain_len(&bytes[..at]), at);
                }
            }
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // At the limit: parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        // One past the limit: a clean error, not deeper recursion.
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // The attack shape: a huge run of unclosed containers must error
        // (without the bound this overflows the stack and aborts).
        for open in ["[", "{\"k\":[", "[[{\"a\":"] {
            let bomb = open.repeat(200_000 / open.len());
            assert!(Json::parse(&bomb).is_err(), "{open:?} bomb must fail");
        }
        // Depth resets between siblings: wide-but-shallow still parses.
        let wide = format!("[{}1]", "[1],".repeat(1000));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }
}
