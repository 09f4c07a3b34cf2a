//! The workspace's one JSON reader/writer: traces, the event log and
//! the live wire path all go through it.
//!
//! The build environment has no route to a crates registry, so JSON is
//! hand-rolled. It lives here so the telemetry event sink and the
//! trace format share it without a dependency cycle: `pema-telemetry`
//! sits below `pema-control` in the graph, `pema-trace` above. Two
//! requirements shape it:
//!
//! * **bit-exact `f64` round trips.** Numbers are *written* as the
//!   shortest decimal that reads back to the same bits, byte for byte
//!   what `Display` prints but through a Ryu kernel, not `core::fmt`;
//!   and *read from the token in place*: [`Reader::f64`] and
//!   [`Reader::u64`] parse the slice of the input once, so `u64`
//!   counters survive above 2^53 and every finite float parses back to
//!   the identical bits. The tree keeps the token raw for the same
//!   reason ([`Value::Num`] stores it, not an `f64`). Non-finite floats
//!   (a saturated window's `p95_ms` is `inf`) have no JSON literal;
//!   they are written as the strings `"inf"` / `"-inf"` / `"nan"`,
//!   which [`Reader::f64`] accepts wherever it accepts a number.
//! * **one tokenizer, and no tree to read a record.** [`Reader`] is a
//!   borrowing, single-pass pull reader: it hands out structure, keys,
//!   strings and number tokens in document order, as slices of the
//!   input wherever the text allows. The trace decoder and the
//!   Prometheus matrix parser fill their structs straight from it, and
//!   checking the schema (unknown, repeated and missing keys) is theirs
//!   to do as the keys go by; [`parse`] is a short recursive builder
//!   over the same reader for the callers that do want a [`Value`]
//!   tree. Nesting is followed [`Reader::MAX_DEPTH`] levels deep and no
//!   further: the text may come off a socket, and a document of nothing
//!   but `[` must be an error, not a stack overflow.

use crate::ryu;
use std::borrow::Cow;

/// A parsed JSON value. Numbers keep their raw token (see the module
/// docs); objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Object as an ordered key/value list.
    Obj(Vec<(String, Value)>),
    /// Array.
    Arr(Vec<Value>),
    /// Number, as its raw unparsed token.
    Num(String),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Value {
    /// The value under `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Short type name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Obj(_) => "object",
            Value::Arr(_) => "array",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
            Value::Null => "null",
        }
    }
}

// ---- writing ----

/// Escapes and quotes a string for JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends `s` escaped and quoted, without the intermediate allocation
/// of [`quote`] — the event log formats a line per control interval,
/// so its keys and values go through here. A string with nothing to
/// escape (keys, action tags, ordinary member names) is appended
/// whole; otherwise the runs between escapes are.
pub fn push_quoted(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    let needs_escape = |b: u8| (b < 0x20) | (b == b'"') | (b == b'\\');
    out.reserve(s.len() + 2);
    out.push('"');
    // Without a branch in its body this scan compiles to vector
    // compares, which beats stopping at the first hit on the 4 to 20
    // bytes a key or a name has.
    if !s.bytes().fold(false, |any, b| any | needs_escape(b)) {
        out.push_str(s);
        out.push('"');
        return;
    }
    // Everything that needs an escape is a single ASCII byte, so
    // `from` and `at` only ever sit on character boundaries.
    let mut from = 0;
    while let Some(i) = s.as_bytes()[from..].iter().position(|&b| needs_escape(b)) {
        let at = from + i;
        out.push_str(&s[from..at]);
        match s.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        from = at + 1;
    }
    out.push_str(&s[from..]);
    out.push('"');
}

/// Appends `v` in decimal, without going through `core::fmt`.
pub fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    // Most of what goes through here is a few digits long, and for so
    // few a char each costs less than the UTF-8 check a `push_str`
    // needs.
    out.extend(ryu::digits(&mut buf, v).iter().map(|&d| char::from(d)));
}

/// Appends an `f64` in the trace encoding: shortest-round-trip decimal
/// for finite values, byte for byte what `Display` prints; the strings
/// `"inf"` / `"-inf"` / `"nan"` otherwise.
///
/// An integer-valued float below 2^53 takes a digits-only route:
/// `Display` prints exactly its integer digits for such a value (no
/// point, no exponent), and on a virtual clock nearly every timestamp
/// and span is one. `-0.0` takes it too, as `-0`. Every other finite
/// value goes through the Ryu kernel in `ryu.rs`.
pub fn push_f64(out: &mut String, v: f64) {
    const EXACT: f64 = (1u64 << 53) as f64;
    let mag = v.abs();
    // NaN and the infinities fail `mag < EXACT`; below it `as u64`
    // truncates, so surviving the round trip means no fraction.
    if mag < EXACT && (mag as u64) as f64 == mag {
        if v.is_sign_negative() {
            out.push('-');
        }
        push_u64(out, mag as u64);
    } else if v.is_finite() {
        ryu::push_shortest(out, v);
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

// ---- reading ----

/// A borrowing, single-pass pull reader over one JSON document — the
/// module's one tokenizer.
///
/// The caller walks the document in order and says what it expects
/// next: [`begin_object`](Self::begin_object), then
/// [`next_key`](Self::next_key) until it returns `None`, each key
/// followed by exactly one value read — [`f64`](Self::f64),
/// [`u64`](Self::u64), [`string`](Self::string), a nested `begin_…`,
/// or [`skip_value`](Self::skip_value) for a value nobody wants, which
/// is checked all the same; arrays likewise with
/// [`begin_array`](Self::begin_array) and
/// [`next_element`](Self::next_element); and [`end`](Self::end) after
/// the top-level value. Text that is not what was asked for is an
/// error `String`. Nothing is allocated except for a string that
/// contains an escape.
///
/// The grammar is the lenient one this module has always read: a
/// number is a run of `0-9 . e E + -` that `str::parse::<f64>` accepts
/// (so `+1`, `.5` and `1.` pass), control characters may sit unescaped
/// in strings, whitespace is space, tab, CR and LF.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    /// Set by `begin_*`, cleared by the `next_*` call that follows: no
    /// comma is due before a container's first member.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// How deep arrays and objects may nest. A trace line nests 4
    /// deep, a Prometheus matrix 6, a Kubernetes Deployment about a
    /// dozen; recursion over a document (the tree builder's, a typed
    /// reader's, [`skip_value`](Self::skip_value)'s own) is bounded by
    /// this whatever the input holds.
    pub const MAX_DEPTH: usize = 128;

    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// Skips whitespace and returns the byte the next token starts
    /// with.
    fn peek(&mut self) -> Option<u8> {
        loop {
            let c = *self.src.as_bytes().get(self.pos)?;
            if c > b' ' || !matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(c);
            }
            self.pos += 1;
        }
    }

    /// What the next value is, for "expected …, found …" messages.
    fn found(&mut self) -> &'static str {
        match self.peek() {
            Some(b'{') => "object",
            Some(b'[') => "array",
            Some(b'"') => "string",
            Some(b't' | b'f') => "bool",
            Some(b'n') => "null",
            Some(b'0'..=b'9' | b'-' | b'+' | b'.') => "number",
            Some(_) => "garbage",
            None => "end of input",
        }
    }

    fn open(&mut self, bracket: u8, what: &str) -> Result<(), String> {
        if self.peek() != Some(bracket) {
            return Err(format!("expected {what}, found {}", self.found()));
        }
        if self.depth == Self::MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {} levels at byte {}",
                Self::MAX_DEPTH,
                self.pos
            ));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Steps to the next member of the innermost open container: past
    /// the comma when one is due (`true`), or past the closing bracket
    /// (`false`).
    fn next_member(&mut self, close: u8) -> Result<bool, String> {
        let first = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// Enters an object: consumes its `{`.
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.open(b'{', "an object")
    }

    /// The next key of the innermost open object with its `:`
    /// consumed, or `None` once the object's `}` is. Keys come in
    /// document order, repeats included.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        if self.peek() != Some(b':') {
            return Err(format!("expected ':' at byte {}", self.pos));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Enters an array: consumes its `[`.
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.open(b'[', "an array")
    }

    /// Whether the innermost open array has another element to read;
    /// consumes its `]` when it has not.
    pub fn next_element(&mut self) -> Result<bool, String> {
        self.next_member(b']')
    }

    /// Reads a string: a slice of the input when it holds no escape
    /// (every key and action tag this workspace writes), an owned copy
    /// when it does. A `\u` escape is exactly four hex digits; a high
    /// surrogate followed by an escaped low one is the one scalar they
    /// encode, a surrogate on its own is U+FFFD.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected a string, found {}", self.found()));
        }
        // `"` and `\` are ASCII, so every index sliced at here and in
        // `unescape` is a character boundary.
        let start = self.pos + 1;
        let rest = &self.src.as_bytes()[start..];
        match rest.iter().position(|&c| c == b'"' || c == b'\\') {
            Some(n) if rest[n] == b'"' => {
                self.pos = start + n + 1;
                Ok(Cow::Borrowed(&self.src[start..start + n]))
            }
            Some(n) => self.unescape(start, start + n).map(Cow::Owned),
            None => Err("unterminated string".to_string()),
        }
    }

    /// The rest of [`string`](Self::string) for one that opened at
    /// `start` and has its first backslash at `at`.
    fn unescape(&mut self, start: usize, mut at: usize) -> Result<String, String> {
        let (src, b) = (self.src, self.src.as_bytes());
        let mut out = String::with_capacity(at - start + 16);
        let mut run = start;
        loop {
            match b.get(at) {
                Some(b'"') => {
                    out.push_str(&src[run..at]);
                    self.pos = at + 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&src[run..at]);
                    let esc = *b.get(at + 1).ok_or("unterminated escape")?;
                    at += 2;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let mut code = hex4(b, at)?;
                            at += 4;
                            if (0xD800..0xDC00).contains(&code) && b[at..].starts_with(b"\\u") {
                                if let Ok(low @ 0xDC00..=0xDFFF) = hex4(b, at + 2) {
                                    code = 0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    at += 6;
                                }
                            }
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    });
                    run = at;
                }
                Some(_) => at += 1,
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// The number token at the reader's position (the caller has
    /// peeked), unparsed.
    fn number(&mut self) -> Result<&'a str, String> {
        let rest = &self.src.as_bytes()[self.pos..];
        let n = rest
            .iter()
            .position(|c| !matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(rest.len());
        if n == 0 {
            return Err(format!("bad number at byte {}", self.pos));
        }
        self.pos += n;
        Ok(&self.src[self.pos - n..self.pos])
    }

    /// The next number token and its value: the grammar check and the
    /// conversion are the one `str::parse`.
    fn parsed_number(&mut self) -> Result<(&'a str, f64), String> {
        let raw = self.number()?;
        match raw.parse() {
            Ok(v) => Ok((raw, v)),
            Err(_) => Err(format!("bad number at byte {}", self.pos - raw.len())),
        }
    }

    /// Reads an `f64` in the trace encoding: a number, or one of the
    /// strings `"inf"` / `"-inf"` / `"nan"`.
    pub fn f64(&mut self) -> Result<f64, String> {
        match self.peek() {
            Some(b'"') => match &*self.string()? {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                _ => Err("expected a number, found string".to_string()),
            },
            Some(b'{' | b'[' | b't' | b'f' | b'n') | None => {
                Err(format!("expected a number, found {}", self.found()))
            }
            Some(_) => Ok(self.parsed_number()?.1),
        }
    }

    /// Reads a `u64` from the token itself, never through a float:
    /// `1.0`, `1e3` and `-1` are errors.
    pub fn u64(&mut self) -> Result<u64, String> {
        let found = self.found();
        self.number()
            .ok()
            .and_then(|raw| raw.parse().ok())
            .ok_or_else(|| format!("expected a non-negative integer, found {found}"))
    }

    /// Consumes a `null` if that is the next value.
    pub fn null(&mut self) -> Result<bool, String> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null")?;
        Ok(true)
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if !self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            return Err(format!("bad literal at byte {}", self.pos));
        }
        self.pos += lit.len();
        Ok(())
    }

    /// Reads past one value of any kind, checking its syntax (and its
    /// nesting depth) exactly as if it had been wanted.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Some(b'"') => drop(self.string()?),
            Some(b't') => self.literal("true")?,
            Some(b'f') => self.literal("false")?,
            Some(b'n') => self.literal("null")?,
            Some(_) => drop(self.parsed_number()?),
            None => return Err("unexpected end of input".to_string()),
        }
        Ok(())
    }

    /// Checks that nothing but whitespace follows the document.
    pub fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing garbage at byte {}", self.pos)),
        }
    }
}

/// The four hex digits of a `\u` escape at `b[at..]`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0, |code, &d| {
        let d = (d as char).to_digit(16).ok_or("bad \\u escape")?;
        Ok(code << 4 | d)
    })
}

/// Parses one complete JSON document into a tree.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader::new(text);
    let v = build(&mut r)?;
    r.end()?;
    Ok(v)
}

/// The tree under the reader's next value; [`Reader::MAX_DEPTH`]
/// bounds the recursion.
fn build(r: &mut Reader<'_>) -> Result<Value, String> {
    Ok(match r.peek() {
        Some(b'{') => {
            r.begin_object()?;
            let mut fields = Vec::new();
            while let Some(key) = r.next_key()? {
                fields.push((key.into_owned(), build(r)?));
            }
            Value::Obj(fields)
        }
        Some(b'[') => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_element()? {
                items.push(build(r)?);
            }
            Value::Arr(items)
        }
        Some(b'"') => Value::Str(r.string()?.into_owned()),
        Some(b't') => r.literal("true").map(|()| Value::Bool(true))?,
        Some(b'f') => r.literal("false").map(|()| Value::Bool(false))?,
        Some(b'n') => r.literal("null").map(|()| Value::Null)?,
        Some(_) => Value::Num(r.parsed_number()?.0.to_owned()),
        None => return Err("unexpected end of input".to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tokenizer as it was before [`Reader`] — a recursive tree
    /// builder, one `String` per key and per number, every number
    /// parsed to be checked and parsed again to be read — kept verbatim
    /// as the oracle for the properties below. It has no nesting limit:
    /// keep deep documents away from it.
    mod reference {
        use super::Value;

        /// Parses one complete JSON document (one trace line).
        pub fn parse(text: &str) -> Result<Value, String> {
            let bytes = text.as_bytes();
            let mut pos = 0usize;
            let v = parse_value(bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(format!("trailing garbage at byte {pos}"));
            }
            Ok(v)
        }

        fn skip_ws(b: &[u8], pos: &mut usize) {
            while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
                *pos += 1;
            }
        }

        fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
            skip_ws(b, pos);
            if *pos < b.len() && b[*pos] == c {
                *pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", c as char, *pos))
            }
        }

        fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b'{') => parse_obj(b, pos),
                Some(b'[') => parse_arr(b, pos),
                Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
                Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
                Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
                Some(b'n') => parse_lit(b, pos, "null", Value::Null),
                Some(_) => parse_num(b, pos),
                None => Err("unexpected end of input".to_string()),
            }
        }

        fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
            if b[*pos..].starts_with(lit.as_bytes()) {
                *pos += lit.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", *pos))
            }
        }

        fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
            expect(b, pos, b'{')?;
            let mut kv = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(kv));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                kv.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(kv));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }

        fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
            expect(b, pos, b'[')?;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }

        fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(format!("expected string at byte {}", *pos));
            }
            *pos += 1;
            let mut out = String::new();
            while let Some(&c) = b.get(*pos) {
                *pos += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                        *pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                if *pos + 4 > b.len() {
                                    return Err("truncated \\u escape".to_string());
                                }
                                let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                *pos += 4;
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            }
                            other => return Err(format!("bad escape '\\{}'", other as char)),
                        }
                    }
                    c => {
                        // Re-assemble multi-byte UTF-8 sequences.
                        let len = match c {
                            0x00..=0x7F => {
                                out.push(c as char);
                                continue;
                            }
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let start = *pos - 1;
                        let end = (start + len).min(b.len());
                        let s = std::str::from_utf8(&b[start..end])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?;
                        out.push_str(s);
                        *pos = end;
                    }
                }
            }
            Err("unterminated string".to_string())
        }

        fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
            let start = *pos;
            if b.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
            if raw.is_empty() || raw.parse::<f64>().is_err() {
                return Err(format!("bad number at byte {start}"));
            }
            Ok(Value::Num(raw.to_string()))
        }
    }

    /// `push_quoted` as it was before the run-copying rewrite, one
    /// `char` at a time: the oracle for the property below.
    fn push_quoted_reference(out: &mut String, s: &str) {
        use std::fmt::Write as _;
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

    /// One whole document holding one trace-encoded `f64`.
    fn read_f64(text: &str) -> Result<f64, String> {
        let mut r = Reader::new(text);
        let v = r.f64()?;
        r.end()?;
        Ok(v)
    }

    /// Appends what `push_f64` must print for `v`, from `Display` alone.
    fn push_display(want: &mut String, v: f64) {
        use std::fmt::Write as _;
        if v.is_finite() {
            write!(want, "{v}").unwrap();
        } else if v.is_nan() {
            want.push_str("\"nan\"");
        } else if v > 0.0 {
            want.push_str("\"inf\"");
        } else {
            want.push_str("\"-inf\"");
        }
    }

    /// That `push_f64` prints what `Display` prints, and that it reads
    /// back to the same bits.
    fn check_f64(v: f64) -> Result<(), String> {
        let (mut got, mut want) = (String::new(), String::new());
        push_f64(&mut got, v);
        push_display(&mut want, v);
        if got != want {
            return Err(format!("{v:?} printed {got}, Display prints {want}"));
        }
        let back = read_f64(&got)?;
        if back.to_bits() != v.to_bits() && !(v.is_nan() && back.is_nan()) {
            return Err(format!("{v:?} -> {got} -> {back:?}"));
        }
        Ok(())
    }

    #[test]
    fn push_f64_pinned_cases_match_display() {
        const TWO_53: f64 = 9_007_199_254_740_992.0;
        // Exact: the float spacing here is 0.25.
        const TIE: f64 = 1_658_206_780_088_562.0 + 0.25;
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            44.0,
            TWO_53 - 1.0,
            -(TWO_53 - 1.0),
            TWO_53,
            TWO_53 + 2.0,
            1e15,
            1e21,
            0.1,
            -0.5,
            TIE,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            check_f64(v).unwrap();
        }
        let pushed = |v: f64| {
            let mut s = String::new();
            push_f64(&mut s, v);
            s
        };
        assert_eq!(pushed(-0.0), "-0");
        assert_eq!(pushed(1e21), format!("1{}", "0".repeat(21)));
        assert_eq!(pushed(5e-324), format!("0.{}5", "0".repeat(323)));
        // An exact tie: the float is ….25, and ….2 and ….3 are equally
        // near and equally short. Reference Ryu's round-half-even step
        // (`vrIsTrailingZeros && lastRemovedDigit == 5 && vr % 2 == 0`)
        // would take ….2; `Display` rounds a tie up, and so does the
        // kernel, which leaves that step out.
        assert_eq!(pushed(TIE), "1658206780088562.3");
    }

    /// Every finite exponent field, subnormals included, with `per_field`
    /// mantissas each, both signs: all-zero, one and all-one mantissas
    /// (`MIN_POSITIVE`, the least subnormal, `f64::MAX`), then random
    /// ones, every other with its low bits cleared. A short mantissa
    /// makes a short exact decimal, which is where a tie between two
    /// shortest candidates lives.
    fn sweep_exponent_fields(per_field: u64, mut check: impl FnMut(f64)) {
        const MANTISSA: u64 = (1 << 52) - 1;
        let mut rng = Rng(0x5eed);
        for field in 0..0x7ff {
            for k in 0..per_field {
                let mantissa = match k {
                    0 => 0,
                    1 => 1,
                    2 => MANTISSA,
                    k if k % 2 == 0 => rng.next() & MANTISSA,
                    _ => rng.next() & MANTISSA & (u64::MAX << (1 + rng.below(52))),
                };
                for sign in [0, 1 << 63] {
                    check(f64::from_bits(sign | field << 52 | mantissa));
                }
            }
        }
    }

    #[test]
    fn push_f64_matches_display_across_every_exponent_field() {
        sweep_exponent_fields(12, |v| check_f64(v).unwrap());
    }

    /// The kernel against `Display` on 50 M random bit patterns and 80 M
    /// values of the per-exponent sweep, about 30 s in a release build on
    /// one core of a 2-core x86-64 host:
    /// `cargo test --release -p pema-telemetry --lib -- --ignored
    /// --exact json::tests::push_f64_soak_matches_display`.
    #[test]
    #[ignore]
    fn push_f64_soak_matches_display() {
        let (mut got, mut want) = (String::new(), String::new());
        let mut check = |v: f64| {
            got.clear();
            want.clear();
            push_f64(&mut got, v);
            push_display(&mut want, v);
            assert_eq!(got, want, "{v:?}");
        };
        let mut rng = Rng(0xba5e);
        for _ in 0..50_000_000 {
            check(f64::from_bits(rng.next()));
        }
        sweep_exponent_fields(20_000, check);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(65_536))]

        #[test]
        fn push_f64_matches_display_for_any_bit_pattern(bits in 0u64..=u64::MAX) {
            check_f64(f64::from_bits(bits)).map_err(TestCaseError::fail)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Random bit patterns are almost never integer-valued; these
        /// are, on both sides of 2^53, with halves mixed in.
        #[test]
        fn push_f64_matches_display_around_the_integer_route(
            n in -(1i64 << 55)..(1i64 << 55),
            shift in 0u32..56,
            half in 0u32..2,
        ) {
            check_f64((n >> shift) as f64 + 0.5 * half as f64).map_err(TestCaseError::fail)?;
        }

        #[test]
        fn push_u64_matches_to_string(n in 0u64..=u64::MAX, shift in 0u32..64) {
            for v in [n, n >> shift, 0, u64::MAX] {
                let mut got = String::from("x");
                push_u64(&mut got, v);
                prop_assert_eq!(got, format!("x{v}"));
            }
        }

        #[test]
        fn push_quoted_matches_the_char_by_char_reference(
            chars in proptest::collection::vec(
                prop_oneof![
                    Just('"'),
                    Just('\\'),
                    (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
                    (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
                    (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
                    (0x7fu32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
                    (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
                ],
                0..24,
            ),
        ) {
            let s: String = chars.into_iter().collect();
            let (mut got, mut want) = (String::from("x"), String::from("x"));
            push_quoted(&mut got, &s);
            push_quoted_reference(&mut want, &s);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(parse(&got[1..]).unwrap(), Value::Str(s));
        }
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.5,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            123_456_789.123_456_78,
            -2.2250738585072014e-308,
        ] {
            let mut s = String::new();
            push_f64(&mut s, v);
            let back = read_f64(&s).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {s} -> {back}");
        }
    }

    #[test]
    fn non_finite_tokens_round_trip() {
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = String::new();
            push_f64(&mut s, v);
            assert_eq!(read_f64(&s).unwrap(), v);
        }
        let mut s = String::new();
        push_f64(&mut s, f64::NAN);
        assert!(read_f64(&s).unwrap().is_nan());
    }

    #[test]
    fn u64_survives_above_2_pow_53() {
        let v = u64::MAX - 1;
        let text = format!("{{\"n\":{v}}}");
        let mut r = Reader::new(&text);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(r.u64().unwrap(), v);
        assert_eq!(r.next_key().unwrap(), None);
        r.end().unwrap();
        // The tree keeps the token, so the same holds through it.
        assert_eq!(parse(&text).unwrap().get("n").unwrap().as_u64(), Some(v));
    }

    // ---- the reader ----

    #[test]
    fn reader_walks_a_document_in_order_and_borrows_what_it_can() {
        let text = " { \"plain\" : [1, \"inf\", -2.5e3 ] ,\n\t\"esc\\n\" : \"a\\\"b\",\r\n \
                    \"skip\": {\"x\":[true,null,{\"y\":\"z\"}], \"w\": 1e-3},\"none\":null,\"n\":7 } ";
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        assert!(matches!(r.next_key(), Ok(Some(Cow::Borrowed("plain")))));
        r.begin_array().unwrap();
        let mut items = Vec::new();
        while r.next_element().unwrap() {
            items.push(r.f64().unwrap());
        }
        assert_eq!(items, [1.0, f64::INFINITY, -2500.0]);
        // An escape is the one thing that costs a copy.
        assert!(matches!(r.next_key(), Ok(Some(Cow::Owned(k))) if k == "esc\n"));
        assert!(matches!(r.string(), Ok(Cow::Owned(s)) if s == "a\"b"));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("skip"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("none"));
        assert!(r.null().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("n"));
        assert!(!r.null().unwrap(), "a 7 is not a null, and is not consumed");
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.next_key().unwrap(), None);
        r.end().unwrap();
    }

    #[test]
    fn typed_reads_reject_the_wrong_kind() {
        let read = |text: &'static str| Reader::new(text);
        for not_u64 in ["1.0", "1e3", "-1", "\"1\"", "null", "[1]", ""] {
            assert!(read(not_u64).u64().is_err(), "{not_u64} is not a u64");
        }
        assert_eq!(read("+7").u64(), Ok(7), "the lenient grammar allows a sign");
        for not_f64 in [
            "\"Inf\"", "\"1\"", "true", "null", "{}", "[1]", "1-2", "e5", "-", "",
        ] {
            assert!(read(not_f64).f64().is_err(), "{not_f64} is not an f64");
        }
        assert!(read("\"\\u0069nf\"").f64().unwrap().is_infinite());
        for not_a_string in ["1", "null", "{}", "\"open", "\"bad \\x escape\""] {
            assert!(read(not_a_string).string().is_err(), "{not_a_string}");
        }
        assert_eq!(
            read("7").begin_object().unwrap_err(),
            "expected an object, found number"
        );
        assert_eq!(
            read("{}").begin_array().unwrap_err(),
            "expected an array, found object"
        );
        let mut r = read("1 2");
        r.f64().unwrap();
        assert_eq!(r.end().unwrap_err(), "trailing garbage at byte 2");
    }

    #[test]
    fn skipping_a_value_checks_it_like_reading_it() {
        for ok in [
            "1",
            "\"s\"",
            "null",
            "[]",
            "{}",
            "[1,[2,{\"a\":[]}],\"x\"]",
            " {\"a\" : .5 } ",
        ] {
            let mut r = Reader::new(ok);
            r.skip_value().unwrap();
            r.end().unwrap();
        }
        for bad in [
            "[1,]",
            "[1 2]",
            "{\"a\":[1,}",
            "{\"a\":tru}",
            "{\"a\":1e}",
            "{\"a\" 1}",
            "{\"a\":\"\\x\"}",
            "{a:1}",
            "{\"a\":1,}",
            "[",
            "{\"a\":",
            "",
        ] {
            assert!(
                Reader::new(bad).skip_value().is_err(),
                "{bad} should not pass"
            );
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        const LIMIT: usize = Reader::MAX_DEPTH;
        // Both of these ended the process when `parse` recursed freely.
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(1 << 20);
            for e in [
                parse(&deep).unwrap_err(),
                Reader::new(&deep).skip_value().unwrap_err(),
            ] {
                assert!(e.starts_with("nesting deeper than 128 levels"), "{e}");
            }
        }
        // Arrays and objects count against the one limit.
        let nested = |depth: usize| -> String {
            let open: String = (0..depth).map(|i| ["[", "{\"a\":"][i % 2]).collect();
            let close: String = (0..depth).rev().map(|i| ["]", "}"][i % 2]).collect();
            format!("{open}{close}").replace("{\"a\":}", "{}")
        };
        let at_limit = nested(LIMIT);
        assert_eq!(reference::parse(&at_limit), parse(&at_limit));
        parse(&at_limit).unwrap();
        let mut r = Reader::new(&at_limit);
        r.skip_value().unwrap();
        r.end().unwrap();
        let past = nested(LIMIT + 1);
        assert!(reference::parse(&past).is_ok(), "deeper is still JSON");
        for e in [
            parse(&past).unwrap_err(),
            Reader::new(&past).skip_value().unwrap_err(),
        ] {
            assert!(e.starts_with("nesting deeper than 128 levels"), "{e}");
        }
    }

    #[test]
    fn unicode_escapes_pair_up_and_take_exactly_four_hex_digits() {
        let read =
            |body: &str| parse(&format!("\"{body}\"")).map(|v| v.as_str().unwrap().to_owned());
        assert_eq!(read("\\ud83d\\ude00").unwrap(), "😀");
        assert_eq!(read("\\uD83D\\uDE00!").unwrap(), "😀!");
        assert_eq!(read("\\u00e9\\u0041").unwrap(), "éA");
        // A surrogate without its other half stays U+FFFD.
        assert_eq!(read("\\ud83d").unwrap(), "\u{FFFD}");
        assert_eq!(read("\\ude00").unwrap(), "\u{FFFD}");
        assert_eq!(read("\\ude00\\ud83d").unwrap(), "\u{FFFD}\u{FFFD}");
        assert_eq!(read("\\ud83d\\u0041").unwrap(), "\u{FFFD}A");
        assert_eq!(read("\\ud83dx\\ude00").unwrap(), "\u{FFFD}x\u{FFFD}");
        assert_eq!(read("\\ud83d\\ud83d\\ude00").unwrap(), "\u{FFFD}😀");
        // `u32::from_str_radix` took a sign for a digit.
        assert!(reference::parse("\"\\u+041\"").is_ok());
        for bad in [
            "\\u+041",
            "\\u 041",
            "\\u-041",
            "\\u12",
            "\\u12g4",
            "\\ud83d\\u+e00",
            "\\u",
        ] {
            assert!(read(bad).is_err(), "{bad} is not an escape");
        }
    }

    #[test]
    fn what_push_quoted_writes_the_reader_reads_back() {
        let s = "ctl\u{1}\u{1f} \"quoted\" back\\slash \n\r\t é 😀";
        let mut text = String::new();
        push_quoted(&mut text, s);
        let mut r = Reader::new(&text);
        assert_eq!(r.string().unwrap(), s);
        r.end().unwrap();
    }

    // ---- the reader against the tokenizer it replaced ----

    /// splitmix64; the two properties below grow a whole document
    /// from one drawn seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    const NUMBERS: &[&str] = &[
        "0",
        "-0",
        "1",
        "42",
        "-7",
        "+1",
        ".5",
        "5.",
        "1e5",
        "1E-3",
        "-2.5e+3",
        "1e999",
        "0.1",
        "18446744073709551615",
        "3.141592653589793",
        "5e-324",
        "-",
        "+",
        "--1",
        "1-2",
        "1e",
        "e5",
        ".",
        "0x10",
        "1_0",
        "NaN",
        "inf",
        "Infinity",
    ];
    const LITERALS: &[&str] = &[
        "true", "false", "null", "tru", "nul", "True", "nullx", "falsey",
    ];
    /// Pieces of a string's body: plain text, every escape, `\u` in
    /// and out of pairs, and the ways an escape goes wrong.
    const PIECES: &[&str] = &[
        "a",
        "key",
        " ",
        "é",
        "😀",
        "inf",
        "-inf",
        "nan",
        "\\n",
        "\\t",
        "\\r",
        "\\\"",
        "\\\\",
        "\\/",
        "\\u0041",
        "\\u00e9",
        "\\u00E9",
        "\\u0000",
        "\u{1}",
        "\t",
        "\\ud83d\\ude00",
        "\\uD83D\\uDE00",
        "\\ud83d",
        "\\ude00",
        "\\ude00\\ud83d",
        "\\ud83d\\u0041",
        "\\ud83dx",
        "\\u+041",
        "\\u 041",
        "\\u12",
        "\\uzzzz",
        "\\x",
        "\\b",
        "\\",
        "\"",
    ];
    const SPACE: &[&str] = &["", "", "", "", " ", "\t", "\n", "\r", " \r\n "];

    fn push_string(rng: &mut Rng, out: &mut String) {
        out.push('"');
        for _ in 0..rng.below(4) {
            // Mostly what both readers read alike: the first 20.
            let pieces = if rng.below(8) == 0 {
                PIECES
            } else {
                &PIECES[..20]
            };
            out.push_str(rng.pick(pieces));
        }
        out.push('"');
    }

    /// A JSON value, or — now and then, at any level — something that
    /// is nearly one.
    fn push_value(rng: &mut Rng, depth: usize, out: &mut String) {
        out.push_str(rng.pick(SPACE));
        let broken = rng.below(24) == 0;
        let kind = match depth {
            0 => 5 + rng.below(3),
            1..=4 => rng.below(8),
            _ => rng.below(5),
        };
        match kind {
            0 | 1 => out.push_str(rng.pick(if broken { NUMBERS } else { &NUMBERS[..16] })),
            2 | 3 => push_string(rng, out),
            4 => out.push_str(rng.pick(if broken { LITERALS } else { &LITERALS[..3] })),
            kind @ (5 | 6) => {
                let (open, close) = [("[", "]"), ("{", "}")][kind - 5];
                out.push_str(open);
                let n = rng.below(4);
                for i in 0..n {
                    if kind == 6 {
                        out.push_str(rng.pick(SPACE));
                        push_string(rng, out);
                        out.push_str(rng.pick(SPACE));
                        out.push_str(if broken && i == 0 { "" } else { ":" });
                    }
                    push_value(rng, depth + 1, out);
                    let last = i + 1 == n;
                    out.push_str(if last == (broken && i > 0) { "," } else { "" });
                }
                out.push_str(rng.pick(SPACE));
                out.push_str(if broken && n == 0 { "" } else { close });
            }
            _ => {
                // A trace-shaped object: the keys a typed reader meets.
                out.push_str("{\"iter\":");
                out.push_str(rng.pick(&NUMBERS[..16]));
                out.push_str(",\"p95_ms\":\"inf\",\"alloc\":[");
                push_value(rng, depth + 1, out);
                out.push_str("]}");
            }
        }
        out.push_str(rng.pick(SPACE));
    }

    fn arbitrary_document(seed: u64) -> String {
        let mut out = String::new();
        push_value(&mut Rng(seed), 0, &mut out);
        out
    }

    /// `doc` with a few bytes overwritten, dropped or inserted, drawn
    /// from the bytes JSON gives a meaning to.
    fn mutated(doc: &str, seed: u64) -> String {
        const BYTES: &[u8] = b"{}[]\",:\\/unrtfalse0123456789+-.eE \t\n\x01\xc3\xa9";
        let mut rng = Rng(seed);
        let mut bytes = doc.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len() + 1);
            let byte = BYTES[rng.below(BYTES.len())];
            match rng.below(3) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => drop(bytes.remove(at)),
                _ => bytes.insert(at, byte),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Whether `doc` holds one of the two things [`Reader`] reads
    /// differently from the reference on purpose: a `\u` escape whose
    /// first "digit" is a `+` (an error now), or an escaped high
    /// surrogate directly followed by an escaped low one (one scalar
    /// now, two U+FFFD before). The third, nesting past the limit,
    /// has its own test: the reference cannot be shown such a document.
    fn reads_differently_on_purpose(doc: &str) -> bool {
        let hex = |at: usize| {
            doc.get(at..at + 4)
                .and_then(|h| u32::from_str_radix(h, 16).ok())
        };
        doc.match_indices("\\u").any(|(at, _)| {
            doc[at + 2..].starts_with('+')
                || (matches!(hex(at + 2), Some(0xD800..=0xDBFF))
                    && doc[at + 6..].starts_with("\\u")
                    && matches!(hex(at + 8), Some(0xDC00..=0xDFFF)))
        })
    }

    fn check_against_reference(doc: &str) -> Result<(), TestCaseError> {
        match (parse(doc), reference::parse(doc)) {
            (Ok(new), Ok(old)) if new == old => {}
            (Err(_), Err(_)) => {}
            (new, old) => {
                prop_assert!(
                    reads_differently_on_purpose(doc),
                    "{doc:?}: reader {new:?}, reference {old:?}"
                );
                prop_assert!(old.is_ok(), "{doc:?}: the reference rejects it: {old:?}");
            }
        }
        // What `skip_value` lets through is what `parse` does.
        let mut r = Reader::new(doc);
        let skipped = r.skip_value().and_then(|()| r.end());
        prop_assert_eq!(skipped.is_ok(), parse(doc).is_ok());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn parse_agrees_with_the_reference_on_generated_documents(seed in 0u64..=u64::MAX) {
            check_against_reference(&arbitrary_document(seed))?;
        }

        #[test]
        fn parse_agrees_with_the_reference_on_mutated_documents(
            seed in 0u64..=u64::MAX,
            mutation in 0u64..=u64::MAX,
        ) {
            check_against_reference(&mutated(&arbitrary_document(seed), mutation))?;
        }
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "line\nwith \"quotes\" and \\ unicode é";
        let q = quote(s);
        assert_eq!(parse(&q).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn get_descends_nested_objects_only() {
        let v = parse(r#"{"a": [1, -2.5e3], "b": {"c": null, "d": true}}"#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(a[0].get("a"), None);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "12x",
            "\"open",
            "{\"a\":}",
            "{} extra",
        ] {
            assert!(parse(bad).is_err(), "{bad} should not parse");
        }
    }
}
