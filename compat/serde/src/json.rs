//! JSON rendering and parsing of [`Value`] trees.
//!
//! Output follows `serde_json` conventions: struct maps keep field order,
//! strings are escaped per RFC 8259, and non-finite floats (which JSON
//! cannot represent) render as `null`. [`parse`] is the inverse — a full
//! RFC 8259 parser producing a [`Value`] tree — and [`from_str`] composes it
//! with [`Deserialize::from_value`], so any value this module wrote can be
//! read back: numbers round-trip bit-identically (integers as integers,
//! floats through Rust's shortest round-trip formatting).
//!
//! # Byte identity
//!
//! The rendered bytes are a contract, not a presentation detail: run keys
//! are content-addressed by a hash of their compact JSON, so a writer change
//! that moved one byte would change every key id and orphan every stored
//! outcome. The writer takes fast paths per value — integers and whole
//! floats from a digit buffer, escape-free strings in one copy, indentation
//! without a string per line — and each must produce exactly what the plain
//! `write!`-per-value rendering produced. The differential test
//! `writer_matches_the_reference_renderer` (`tests/json_reference.rs`)
//! holds that: it renders random value trees, signed zeros, subnormals,
//! every cut-off float, every control byte and multibyte UTF-8 through both
//! writers and compares the bytes.

use std::fmt::Write as _;

use crate::de::Error;
use crate::{Deserialize, Serialize, Value};

/// Serializes a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    out
}

/// Serializes a value as indented (2-space) JSON with a trailing newline,
/// the format the figure artifacts are written in.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => write_u64(out, *n),
        Value::Int(n) => {
            if *n < 0 {
                out.push('-');
            }
            write_u64(out, n.unsigned_abs());
        }
        Value::Float(x) => write_float(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_compound(out, indent, depth, items.len(), '[', ']', |out, i| {
            write_value(out, &items[i], indent, depth + 1);
        }),
        Value::Map(entries) => {
            write_compound(out, indent, depth, entries.len(), '{', '}', |out, i| {
                let (key, val) = &entries[i];
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            })
        }
    }
}

fn write_compound(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            new_line(out, step * (depth + 1));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(step) = indent {
            new_line(out, step * depth);
        }
    }
    out.push(close);
}

/// A newline followed by `width` spaces of indentation.
fn new_line(out: &mut String, width: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', width));
}

/// Decimal digits of `n`, two at a time from a table of digit pairs,
/// rendered right to left into a stack buffer: the bytes `write!(out,
/// "{n}")` produces, without the formatting machinery.
fn write_u64(out: &mut String, mut n: u64) {
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
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        if x == x.trunc() && x.abs() < 1e15 {
            // Keep whole floats recognizably floating-point, as serde_json
            // does ("1.0", not "1"). Below 1e15 a whole float is an exact
            // integer, so its digits plus ".0" are what `{x:.1}` renders,
            // the sign of -0.0 included.
            if x.is_sign_negative() {
                out.push('-');
            }
            write_u64(out, x.abs() as u64);
            out.push_str(".0");
        } else if x != 0.0 && (x.abs() >= 1e17 || x.abs() < 1e-5) {
            // Rust's `{}` never uses scientific notation; avoid hundreds of
            // digits for extreme magnitudes (still valid JSON numbers).
            let _ = write!(out, "{x:e}");
        } else {
            let _ = write!(out, "{x}");
        }
    } else {
        // JSON has no NaN/Infinity; serde_json's Value also maps them to null.
        out.push_str("null");
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
                    // Advance over one UTF-8 character (input is a &str, so
                    // the byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a &str");
                    let c = s.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
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

/// Writes `s` as a quoted JSON string. Only ASCII bytes ever need an
/// escape, so the runs between escapes fall on char boundaries and copy as
/// whole slices; an escape-free string is a single copy.
fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
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
