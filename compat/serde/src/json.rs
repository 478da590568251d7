//! JSON rendering of serializable values and parsing into [`Value`] trees.
//!
//! Output follows `serde_json` conventions: struct maps keep field order,
//! strings are escaped per RFC 8259, and non-finite floats (which JSON
//! cannot represent) render as `null`. [`to_string`] and [`to_string_pretty`]
//! hand a [`Writer`] to [`Serialize::write_json`], so a derived type writes
//! its fields straight to text; only types without a `write_json` of their
//! own render through their [`Value`] tree. [`parse`] is the inverse — a
//! full RFC 8259 parser producing a [`Value`] tree, in one pass over its
//! input — and [`from_str`] composes it with [`Deserialize::from_value`], so
//! any value this module wrote can be read back: numbers round-trip
//! bit-identically (integers as integers, floats through Rust's shortest
//! round-trip formatting).
//!
//! # Byte identity
//!
//! The rendered bytes are a contract, not a presentation detail: run keys
//! are content-addressed by a hash of their compact JSON, so a writer change
//! that moved one byte would change every key id and orphan every stored
//! outcome. The writer takes fast paths per value — integers and whole
//! floats from a digit buffer, escape-free strings in one copy, indentation
//! without a string per line, field names as pre-escaped literals — and
//! each must produce exactly what the plain `write!`-per-value rendering of
//! the value's tree produced. The differential tests in
//! `tests/json_reference.rs` hold that: `writer_matches_the_reference_renderer`
//! renders random value trees, signed zeros, subnormals, every cut-off
//! float, every control byte and multibyte UTF-8 through both writers, and
//! `derived_values_render_like_the_reference` does the same for derived
//! types of every shape against the reference rendering of their
//! [`Serialize::to_value`] tree.

use std::fmt::Write as _;

use crate::de::Error;
use crate::{Deserialize, Serialize, Value};

/// Serializes a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut w = Writer::new(false);
    value.write_json(&mut w);
    w.out
}

/// Serializes a value as indented (2-space) JSON with a trailing newline,
/// the format the figure artifacts are written in.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut w = Writer::new(true);
    value.write_json(&mut w);
    w.out.push('\n');
    w.out
}

/// JSON text being written: the output and its indentation setting.
///
/// [`Serialize::write_json`] drives it with scalars ([`Writer::write_u64`],
/// [`Writer::write_float`], [`Writer::write_string`], …) and compound steps.
/// A sequence is [`Writer::begin_seq`], then [`Writer::element`] before the
/// `i`-th item, then [`Writer::end_seq`] with the item count; a map is
/// [`Writer::begin_map`], [`Writer::key`] (or the pre-escaped
/// [`Writer::field`]) before the `i`-th value, and [`Writer::end_map`].
/// The steps place every comma, newline and indent, so any value that
/// drives them renders as the same bytes as its [`Value`] tree.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
}

/// Spaces per nesting level in indented output.
const INDENT: usize = 2;

impl Writer {
    fn new(pretty: bool) -> Self {
        Writer {
            out: String::new(),
            pretty,
            depth: 0,
        }
    }

    /// Writes `null`.
    pub fn write_null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn write_bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes the decimal digits of `n`, two at a time from a table of digit
    /// pairs, rendered right to left into a stack buffer: the bytes
    /// `write!(out, "{n}")` produces, without the formatting machinery.
    pub fn write_u64(&mut self, mut n: u64) {
        const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                    2021222324252627282930313233343536373839\
                                    4041424344454647484950515253545556575859\
                                    6061626364656667686970717273747576777879\
                                    8081828384858687888990919293949596979899";
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        while n >= 100 {
            let pair = 2 * (n % 100) as usize;
            n /= 100;
            start -= 2;
            digits[start..start + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = 2 * n as usize;
            start -= 2;
            digits[start..start + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        } else {
            start -= 1;
            digits[start] = b'0' + n as u8;
        }
        self.out
            .push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    }

    /// Writes `n` in decimal, with a `-` when negative.
    pub fn write_i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push('-');
        }
        self.write_u64(n.unsigned_abs());
    }

    /// Writes a float: whole values below 1e15 as digits plus `.0`, extreme
    /// magnitudes in scientific notation, others in Rust's shortest
    /// round-trip form, and non-finite values as `null`.
    pub fn write_float(&mut self, x: f64) {
        if x.is_finite() {
            if x == x.trunc() && x.abs() < 1e15 {
                // Keep whole floats recognizably floating-point, as serde_json
                // does ("1.0", not "1"). Below 1e15 a whole float is an exact
                // integer, so its digits plus ".0" are what `{x:.1}` renders,
                // the sign of -0.0 included.
                if x.is_sign_negative() {
                    self.out.push('-');
                }
                self.write_u64(x.abs() as u64);
                self.out.push_str(".0");
            } else if x != 0.0 && (x.abs() >= 1e17 || x.abs() < 1e-5) {
                // Rust's `{}` never uses scientific notation; avoid hundreds of
                // digits for extreme magnitudes (still valid JSON numbers).
                let _ = write!(self.out, "{x:e}");
            } else {
                let _ = write!(self.out, "{x}");
            }
        } else {
            // JSON has no NaN/Infinity; serde_json's Value also maps them to null.
            self.out.push_str("null");
        }
    }

    /// Writes `s` as a quoted JSON string. Only ASCII bytes ever need an
    /// escape, so the runs between escapes fall on char boundaries and copy
    /// as whole slices; an escape-free string is a single copy.
    pub fn write_string(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let out = &mut self.out;
        out.push('"');
        let mut run_start = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' | b'\\' => b,
                b'\n' => b'n',
                b'\r' => b'r',
                b'\t' => b't',
                0..=0x1f => b'u',
                _ => continue,
            };
            out.push_str(&s[run_start..i]);
            out.push('\\');
            out.push(char::from(escape));
            if escape == b'u' {
                out.push_str("00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
            run_start = i + 1;
        }
        out.push_str(&s[run_start..]);
        out.push('"');
    }

    /// Opens a sequence.
    pub fn begin_seq(&mut self) {
        self.begin('[');
    }

    /// Closes a sequence of `len` elements.
    pub fn end_seq(&mut self, len: usize) {
        self.end(']', len);
    }

    /// Opens a map.
    pub fn begin_map(&mut self) {
        self.begin('{');
    }

    /// Closes a map of `len` entries.
    pub fn end_map(&mut self, len: usize) {
        self.end('}', len);
    }

    /// Starts the `i`-th element of the open sequence (counting from 0).
    pub fn element(&mut self, i: usize) {
        if i > 0 {
            self.out.push(',');
        }
        if self.pretty {
            self.new_line(self.depth);
        }
    }

    /// Starts the `i`-th entry of the open map with `key`, escaped.
    pub fn key(&mut self, i: usize, key: &str) {
        self.element(i);
        self.write_string(key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Starts the `i`-th entry of the open map with `quoted_key`, a key
    /// already quoted and escaped and followed by its colon (`"name":`):
    /// the derive writes field and variant names this way.
    pub fn field(&mut self, i: usize, quoted_key: &str) {
        self.element(i);
        self.out.push_str(quoted_key);
        if self.pretty {
            self.out.push(' ');
        }
    }

    fn begin(&mut self, open: char) {
        self.out.push(open);
        self.depth += 1;
    }

    fn end(&mut self, close: char, len: usize) {
        self.depth -= 1;
        if len > 0 && self.pretty {
            self.new_line(self.depth);
        }
        self.out.push(close);
    }

    /// A newline followed by the indentation of nesting level `depth`.
    fn new_line(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', INDENT * depth));
    }
}

/// Parses a JSON document into a [`Value`] tree.
///
/// # Errors
///
/// Returns an [`Error`] describing the first syntax error (with its byte
/// offset) on malformed input, including trailing garbage after the value.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Parses a JSON document and deserializes it into `T`.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    T::from_value(&parse(input)?)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Maximum container nesting the parser accepts. The recursive-descent
/// parser uses one stack frame per level, so corrupt input (e.g. a run of
/// `[` bytes in a damaged outcome file) must produce a typed error instead
/// of a stack-overflow abort. 128 is far beyond any document this workspace
/// writes (artifacts nest < 10 deep).
const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error::custom(format!("JSON parse error at byte {}: {message}", self.pos))
    }

    fn skip_whitespace(&mut self) {
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

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    /// Bounds container nesting (one recursion level per container).
    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.enter()?;
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("bad escape"))?;
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
                            let unit = self.parse_hex4()?;
                            // Surrogate pairs encode astral-plane characters
                            // as two consecutive \u escapes.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if !self.eat_literal("\\u") {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000
                                    + ((unit as u32 - 0xD800) << 10)
                                    + (low as u32 - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(unit as u32)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid \\u escape"))?);
                        }
                        _ => return Err(self.error("unknown escape character")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as one
                    // slice. Both are ASCII, so the run ends on a char
                    // boundary of the input, and each byte is looked at once.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u16, Error> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let unit = u16::from_str_radix(hex, 16).map_err(|_| self.error("non-hex \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    /// Numbers keep their serialized kind: integer tokens without a fraction
    /// or exponent become [`Value::UInt`]/[`Value::Int`] (falling back to
    /// float only on 64-bit overflow); anything else parses as [`Value::Float`]
    /// via Rust's correctly-rounded `f64` parser, which inverts the shortest
    /// round-trip formatting the writer uses.
    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Some(digits) = text.strip_prefix('-') {
                if digits.is_empty() {
                    return Err(self.error("lone `-` is not a number"));
                }
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::Int(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Value::Map(vec![
            ("name".to_owned(), Value::Str("fig01".to_owned())),
            (
                "points".to_owned(),
                Value::Seq(vec![Value::Float(1.0), Value::Float(1.31)]),
            ),
            ("n".to_owned(), Value::UInt(2)),
            ("ok".to_owned(), Value::Bool(true)),
            ("missing".to_owned(), Value::Null),
        ]);
        assert_eq!(
            to_string(&v),
            r#"{"name":"fig01","points":[1.0,1.31],"n":2,"ok":true,"missing":null}"#
        );
    }

    #[test]
    fn pretty_rendering_indents_and_ends_with_newline() {
        let v = Value::Map(vec![("a".to_owned(), Value::Seq(vec![Value::UInt(1)]))]);
        assert_eq!(to_string_pretty(&v), "{\n  \"a\": [\n    1\n  ]\n}\n");
        assert_eq!(to_string_pretty(&Value::Seq(vec![])), "[]\n");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn parse_inverts_rendering() {
        let v = Value::Map(vec![
            ("name".to_owned(), Value::Str("fig01".to_owned())),
            (
                "points".to_owned(),
                Value::Seq(vec![Value::Float(1.0), Value::Float(1.31)]),
            ),
            ("n".to_owned(), Value::UInt(2)),
            ("neg".to_owned(), Value::Int(-3)),
            ("ok".to_owned(), Value::Bool(true)),
            ("missing".to_owned(), Value::Null),
            ("empty_seq".to_owned(), Value::Seq(vec![])),
            ("empty_map".to_owned(), Value::Map(vec![])),
        ]);
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn numbers_round_trip_bit_identically() {
        for x in [
            0.1f64,
            -0.5,
            2.0,
            1.0 / 3.0,
            1e300,
            -3.9e-12,
            f64::MAX,
            f64::MIN_POSITIVE,
            123_456_789.000_25,
        ] {
            let parsed = parse(&to_string(&x)).unwrap();
            assert_eq!(parsed.as_f64().map(f64::to_bits), Some(x.to_bits()), "{x}");
        }
        assert_eq!(parse(&to_string(&u64::MAX)).unwrap(), Value::UInt(u64::MAX));
        assert_eq!(parse(&to_string(&i64::MIN)).unwrap(), Value::Int(i64::MIN));
        assert_eq!(parse("5e3").unwrap(), Value::Float(5000.0));
    }

    #[test]
    fn strings_unescape() {
        assert_eq!(
            parse("\"a\\\"b\\\\c\\nd\\u0001\\u00e9\"").unwrap(),
            Value::Str("a\"b\\c\nd\u{1}é".to_owned())
        );
        // Astral-plane characters arrive via surrogate pairs.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".to_owned())
        );
        // Raw (unescaped) UTF-8 passes through.
        assert_eq!(parse("\"héllo\"").unwrap(), Value::Str("héllo".to_owned()));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 64 Ki two-byte characters. A parser that rescans the rest of the
        // input per character takes over a second here in a debug build;
        // one pass takes about a millisecond.
        let text = "é".repeat(64 * 1024);
        let doc = format!("\"{text}\"");
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed, Value::Str(text));
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "parsing took {elapsed:?}"
        );
    }

    #[test]
    fn from_str_composes_parse_and_deserialize() {
        assert_eq!(from_str::<Vec<u8>>("[1, 2, 3]").unwrap(), vec![1, 2, 3]);
        assert_eq!(from_str::<Option<bool>>("null").unwrap(), None);
        assert!(from_str::<Vec<u8>>("{}").is_err());
    }

    #[test]
    fn pathological_nesting_is_an_error_not_a_stack_overflow() {
        // A corrupt outcome file full of `[` bytes must come back as a typed
        // parse error; the recursion bound keeps it off the call stack.
        let deep_ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep_ok).is_ok());
        let too_deep = "[".repeat(100_000);
        let err = parse(&too_deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let deep_objects = "{\"a\":".repeat(100_000);
        assert!(parse(&deep_objects)
            .unwrap_err()
            .to_string()
            .contains("nesting"));
    }

    #[test]
    fn malformed_documents_are_rejected_with_position() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "[1] x",
            "-",
            "\"\\q\"",
            "nul",
            "{1: 2}",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.to_string().contains("JSON parse error"), "{bad}: {err}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert_eq!(to_string(&1.25f64), "1.25");
        assert_eq!(to_string(&2.0f64), "2.0");
        assert_eq!(to_string(&-0.5f64), "-0.5");
        assert_eq!(to_string(&1e300f64), "1e300");
    }
}
