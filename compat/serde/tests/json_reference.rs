//! Differential test of the JSON writer: [`json::to_string`] and
//! [`json::to_string_pretty`] must render every [`Value`] tree byte for byte
//! like the reference renderer below.
//!
//! The reference is the writer as it stood before its per-value fast paths
//! (digit buffers for integers, integer digits for whole floats, escape-run
//! copies for strings, indentation without a string per line), kept
//! verbatim as the oracle. Run
//! keys are content-addressed by a hash of this output, so a single byte of
//! drift would change every `RunKeyId` and orphan every stored outcome.

use std::fmt::Write as _;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{json, Value};

// --- The reference renderer (verbatim). -----------------------------------

fn reference_to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

fn reference_to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
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
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * depth));
        }
    }
    out.push(close);
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        if x == x.trunc() && x.abs() < 1e15 {
            // Keep whole floats recognizably floating-point, as serde_json
            // does ("1.0", not "1").
            let _ = write!(out, "{x:.1}");
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

fn write_string(out: &mut String, s: &str) {
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

// --- Value pools. ----------------------------------------------------------

/// Floats at every boundary the writer branches on: whole vs fractional,
/// the 1e15 whole-float cut-off, the 1e17 and 1e-5 exponent cut-offs, signed
/// zero, subnormals, the extremes, and the non-finite values.
const EDGE_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    2.0,
    0.5,
    -0.5,
    1e15 - 1.0,
    -(1e15 - 1.0),
    1e15 - 0.5,
    1e15,
    -1e15,
    1e16,
    9_007_199_254_740_992.0,
    1e17 - 1.0,
    1e17 - 16.0,
    1e17,
    -1e17,
    1e-5,
    -1e-5,
    9.99e-6,
    5e-324,
    -5e-324,
    // The largest subnormal.
    f64::from_bits(0x000f_ffff_ffff_ffff),
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    f64::EPSILON,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Every character class the string writer treats differently: each
/// control byte, the two escaped printables, DEL, plain ASCII and
/// multibyte UTF-8 of every width.
fn string_chars() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend(['"', '\\', '\u{7f}', '/', ' ', 'a', 'Z', '0', '~']);
    chars.extend([
        'é',
        'ß',
        '\u{80}',
        '€',
        '中',
        '\u{2028}',
        '😀',
        '\u{10ffff}',
    ]);
    chars
}

fn draw(rng: &mut TestRng, below: usize) -> usize {
    (0..below).generate(rng)
}

fn bits(rng: &mut TestRng) -> u64 {
    (0..=u64::MAX).generate(rng)
}

fn any_float(rng: &mut TestRng) -> f64 {
    match draw(rng, 6) {
        0 => EDGE_FLOATS[draw(rng, EDGE_FLOATS.len())],
        1 => f64::from_bits(bits(rng)),
        // Whole numbers of every magnitude, on both sides of 1e15.
        2 => ((bits(rng) as i64) >> draw(rng, 64)) as f64,
        3 => (bits(rng) % 2_000_000_000_000_000) as f64 - 1e15,
        // Short binary fractions, like the model's ratios and rates.
        4 => (bits(rng) % 1_000_000) as f64 / f64::from(1u32 << draw(rng, 20)),
        _ => (bits(rng) % 10_000) as f64 / 10f64.powi(draw(rng, 8) as i32),
    }
}

fn any_string(rng: &mut TestRng, chars: &[char]) -> String {
    let len = draw(rng, 12);
    (0..len).map(|_| chars[draw(rng, chars.len())]).collect()
}

/// Random [`Value`] trees up to `depth` levels of nesting.
struct Trees {
    depth: usize,
    chars: Vec<char>,
}

impl Trees {
    fn tree(&self, rng: &mut TestRng, depth: usize) -> Value {
        let kinds = if depth == 0 { 6 } else { 8 };
        match draw(rng, kinds) {
            0 => Value::Null,
            1 => Value::Bool(bits(rng) & 1 == 1),
            2 => Value::UInt(match draw(rng, 4) {
                0 => 0,
                1 => u64::MAX,
                2 => bits(rng) >> draw(rng, 64),
                _ => bits(rng),
            }),
            3 => Value::Int(match draw(rng, 5) {
                0 => 0,
                1 => i64::MIN,
                2 => i64::MAX,
                3 => (bits(rng) as i64) >> draw(rng, 64),
                _ => bits(rng) as i64,
            }),
            4 => Value::Float(any_float(rng)),
            5 => Value::Str(any_string(rng, &self.chars)),
            6 => Value::Seq(
                (0..draw(rng, 5))
                    .map(|_| self.tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..draw(rng, 5))
                    .map(|_| (any_string(rng, &self.chars), self.tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }
}

impl Strategy for Trees {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        self.tree(rng, self.depth)
    }
}

fn trees() -> Trees {
    Trees {
        depth: 4,
        chars: string_chars(),
    }
}

fn assert_same_bytes(value: &Value) {
    assert_eq!(
        json::to_string(value),
        reference_to_string(value),
        "{value:?}"
    );
    assert_eq!(
        json::to_string_pretty(value),
        reference_to_string_pretty(value),
        "{value:?}"
    );
}

// --- The properties. -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn writer_matches_the_reference_renderer(value in trees()) {
        prop_assert_eq!(json::to_string(&value), reference_to_string(&value));
        prop_assert_eq!(json::to_string_pretty(&value), reference_to_string_pretty(&value));
    }
}

#[test]
fn every_edge_value_renders_like_the_reference() {
    for &x in EDGE_FLOATS {
        assert_same_bytes(&Value::Float(x));
        assert_same_bytes(&Value::Float(-x));
    }
    for n in [
        0,
        1,
        9,
        10,
        99,
        100,
        u64::from(u32::MAX),
        u64::MAX - 1,
        u64::MAX,
    ] {
        assert_same_bytes(&Value::UInt(n));
    }
    for n in [0, -1, 1, -10, i64::MIN, i64::MIN + 1, i64::MAX] {
        assert_same_bytes(&Value::Int(n));
    }
    for c in string_chars() {
        let s = format!("{c}x{c}{c}");
        assert_same_bytes(&Value::Str(s.clone()));
        assert_same_bytes(&Value::Map(vec![(s, Value::Null)]));
    }
    assert_same_bytes(&Value::Str(String::new()));
    assert_same_bytes(&Value::Seq(vec![]));
    assert_same_bytes(&Value::Map(vec![]));
}
