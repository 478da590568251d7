//! Differential test of the JSON writer: [`json::to_string`] and
//! [`json::to_string_pretty`] must render every [`Value`] tree, and every
//! derived type of each supported shape, byte for byte like the reference
//! renderer below (a derived value through its [`Serialize::to_value`]
//! tree). The reader is held to the writer too: every rendered tree reads
//! back to the same bytes, and arbitrary or byte-mutated text read by
//! [`json::parse`] comes back as a value or a typed error, never a panic.
//!
//! The reference is the writer as it stood before its per-value fast paths
//! (digit buffers for integers, integer digits for whole floats, escape-run
//! copies for strings, indentation without a string per line), kept
//! verbatim as the oracle. Run
//! keys are content-addressed by a hash of this output, so a single byte of
//! drift would change every `RunKeyId` and orphan every stored outcome.

use std::fmt::Write as _;

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{json, Serialize, Value};

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

// --- Derived types of every supported shape. ------------------------------

#[derive(Serialize)]
struct Record {
    inner: Inner,
    items: Vec<Inner>,
    maybe: Option<f64>,
    maybe_inner: Option<Inner>,
    single: f32,
    double: f64,
    singles: Vec<f32>,
    ints: Ints,
    flag: bool,
    text: String,
    pair: Pair,
    wrapped: Wrapped,
    marker: Marker,
    shapes: Vec<Shape>,
    fixed: [u16; 3],
    boxed: Box<Inner>,
    shared: Rc<String>,
    atomic: Arc<str>,
    tuple: (u8, f64, String),
    table: BTreeMap<String, i32>,
}

#[derive(Serialize)]
struct Inner {
    id: u32,
    label: String,
    ratio: f32,
}

#[derive(Serialize)]
struct Ints {
    a: u8,
    b: u16,
    c: u32,
    d: u64,
    e: usize,
    f: i8,
    g: i16,
    h: i32,
    i: i64,
    j: isize,
}

#[derive(Serialize)]
struct Pair(i64, String);

#[derive(Serialize)]
struct Wrapped(f64);

#[derive(Serialize)]
struct Marker;

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(f64),
    Tuple(u8, String),
    Struct { x: i32, y: Option<f32> },
}

#[derive(Serialize)]
struct Generic<'a, T, const N: usize> {
    name: &'a str,
    items: [T; N],
    rest: &'a [T],
}

/// `f32`s at the writer's branch points after widening to `f64`, and
/// arbitrary bit patterns (non-finite values and subnormals among them).
fn any_f32(rng: &mut TestRng) -> f32 {
    match draw(rng, 3) {
        0 => [
            0.0,
            -0.0,
            1.0,
            0.1,
            -2.5,
            1e-45,
            f32::MAX,
            f32::MIN_POSITIVE,
        ][draw(rng, 8)],
        1 => f32::from_bits(bits(rng) as u32),
        _ => any_float(rng) as f32,
    }
}

/// Random derived values with every field drawn from the value pools.
struct Records {
    chars: Vec<char>,
}

impl Records {
    fn inner(&self, rng: &mut TestRng) -> Inner {
        Inner {
            id: bits(rng) as u32,
            label: any_string(rng, &self.chars),
            ratio: any_f32(rng),
        }
    }

    fn ints(&self, rng: &mut TestRng) -> Ints {
        // Half the draws take each field's extreme, the rest any bit pattern.
        let edge = |rng: &mut TestRng, lo: i128, hi: i128| -> i128 {
            match draw(rng, 4) {
                0 => lo,
                1 => hi,
                _ => i128::from(bits(rng) as i64),
            }
        };
        Ints {
            a: edge(rng, 0, u8::MAX.into()) as u8,
            b: edge(rng, 0, u16::MAX.into()) as u16,
            c: edge(rng, 0, u32::MAX.into()) as u32,
            d: edge(rng, 0, u64::MAX.into()) as u64,
            e: edge(rng, 0, usize::MAX as i128) as usize,
            f: edge(rng, i8::MIN.into(), i8::MAX.into()) as i8,
            g: edge(rng, i16::MIN.into(), i16::MAX.into()) as i16,
            h: edge(rng, i32::MIN.into(), i32::MAX.into()) as i32,
            i: edge(rng, i64::MIN.into(), i64::MAX.into()) as i64,
            j: edge(rng, isize::MIN as i128, isize::MAX as i128) as isize,
        }
    }

    fn shape(&self, rng: &mut TestRng) -> Shape {
        match draw(rng, 4) {
            0 => Shape::Unit,
            1 => Shape::Newtype(any_float(rng)),
            2 => Shape::Tuple(bits(rng) as u8, any_string(rng, &self.chars)),
            _ => Shape::Struct {
                x: bits(rng) as i32,
                y: (draw(rng, 2) == 0).then(|| any_f32(rng)),
            },
        }
    }
}

impl Strategy for Records {
    type Value = Record;

    fn generate(&self, rng: &mut TestRng) -> Record {
        Record {
            inner: self.inner(rng),
            items: (0..draw(rng, 4)).map(|_| self.inner(rng)).collect(),
            maybe: (draw(rng, 2) == 0).then(|| any_float(rng)),
            maybe_inner: (draw(rng, 2) == 0).then(|| self.inner(rng)),
            single: any_f32(rng),
            double: any_float(rng),
            singles: (0..draw(rng, 4)).map(|_| any_f32(rng)).collect(),
            ints: self.ints(rng),
            flag: bits(rng) & 1 == 1,
            text: any_string(rng, &self.chars),
            pair: Pair(bits(rng) as i64, any_string(rng, &self.chars)),
            wrapped: Wrapped(any_float(rng)),
            marker: Marker,
            shapes: (0..draw(rng, 5)).map(|_| self.shape(rng)).collect(),
            fixed: [bits(rng) as u16, bits(rng) as u16, bits(rng) as u16],
            boxed: Box::new(self.inner(rng)),
            shared: Rc::new(any_string(rng, &self.chars)),
            atomic: any_string(rng, &self.chars).into(),
            tuple: (
                bits(rng) as u8,
                any_float(rng),
                any_string(rng, &self.chars),
            ),
            table: (0..draw(rng, 3))
                .map(|_| (any_string(rng, &self.chars), bits(rng) as i32))
                .collect(),
        }
    }
}

fn records() -> Records {
    Records {
        chars: string_chars(),
    }
}

/// A typed value renders like the reference renderer over its `Value` tree.
fn assert_same_bytes_as_tree<T: Serialize + ?Sized>(value: &T) {
    let tree = value.to_value();
    assert_eq!(
        json::to_string(value),
        reference_to_string(&tree),
        "{tree:?}"
    );
    assert_eq!(
        json::to_string_pretty(value),
        reference_to_string_pretty(&tree),
        "{tree:?}"
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

    #[test]
    fn derived_values_render_like_the_reference(record in records()) {
        assert_same_bytes_as_tree(&record);
    }
}

#[test]
fn every_derived_shape_renders_like_the_reference() {
    let mut rng = TestRng::deterministic("every_derived_shape_renders_like_the_reference");
    let records = records();
    for _ in 0..64 {
        let record = records.generate(&mut rng);
        assert_same_bytes_as_tree(&record.inner);
        assert_same_bytes_as_tree(&record.items);
        assert_same_bytes_as_tree(&record.pair);
        assert_same_bytes_as_tree(&record.wrapped);
        assert_same_bytes_as_tree(&record.shapes);
        assert_same_bytes_as_tree(&record.table);
        assert_same_bytes_as_tree(&record);
    }
    for shape in [
        Shape::Unit,
        Shape::Newtype(-0.0),
        Shape::Tuple(0, String::new()),
        Shape::Struct { x: -1, y: None },
    ] {
        assert_same_bytes_as_tree(&shape);
    }
    assert_same_bytes_as_tree(&Marker);
    assert_same_bytes_as_tree(&Vec::<Inner>::new());
    assert_same_bytes_as_tree(&[0u8; 0]);
    assert_same_bytes_as_tree(&None::<Inner>);
    let rest = [1.5f64, f64::NAN];
    assert_same_bytes_as_tree(&Generic::<'_, f64, 2> {
        name: "g\"\n",
        items: [f64::from_bits(1), -1e300],
        rest: &rest,
    });
    assert_same_bytes_as_tree(&Generic::<'_, Marker, 0> {
        name: "",
        items: [],
        rest: &[],
    });
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

// --- The reader. -----------------------------------------------------------

/// Text built from the characters that steer the parser (structure,
/// literals, numbers) and every character the string writer treats
/// differently.
struct Texts {
    chars: Vec<char>,
}

impl Strategy for Texts {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        (0..draw(rng, 40))
            .map(|_| self.chars[draw(rng, self.chars.len())])
            .collect()
    }
}

fn texts() -> Texts {
    let mut chars = string_chars();
    chars.extend("{}[]:,-+.eE19nultrfas".chars());
    Texts { chars }
}

/// Bytes that open, close or separate JSON values.
const STRUCTURE: &[u8] = b"{}[]\":,\\-.e0";

/// A rendered tree with a few of its bytes replaced, deleted, inserted or
/// cut off. Bytes that no longer form UTF-8 read as U+FFFD, since the
/// reader takes text.
struct Mutated(Trees);

impl Strategy for Mutated {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let tree = self.0.generate(rng);
        let text = if bits(rng) & 1 == 1 {
            json::to_string(&tree)
        } else {
            json::to_string_pretty(&tree)
        };
        let mut bytes = text.into_bytes();
        for _ in 0..=draw(rng, 4) {
            let at = draw(rng, bytes.len() + 1);
            match draw(rng, 4) {
                0 if at < bytes.len() => bytes[at] = bits(rng) as u8,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, STRUCTURE[draw(rng, STRUCTURE.len())]),
                _ => bytes.truncate(at),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

fn assert_parses_or_fails_cleanly(text: &str) {
    if let Err(e) = json::parse(text) {
        assert!(e.to_string().contains("JSON parse error"), "{text:?}: {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn arbitrary_text_parses_or_fails_without_panicking(text in texts()) {
        assert_parses_or_fails_cleanly(&text);
    }

    #[test]
    fn mutated_documents_parse_or_fail_without_panicking(text in Mutated(trees())) {
        assert_parses_or_fails_cleanly(&text);
    }

    #[test]
    fn rendered_trees_read_back_to_the_same_bytes(value in trees()) {
        let compact = json::to_string(&value);
        let read = json::parse(&compact).expect("the writer's output parses");
        prop_assert_eq!(json::to_string(&read), compact);
        let pretty = json::to_string_pretty(&value);
        let read = json::parse(&pretty).expect("the writer's output parses");
        prop_assert_eq!(json::to_string_pretty(&read), pretty);
    }
}
