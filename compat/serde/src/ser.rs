//! The [`Serialize`] trait and its implementations for standard types.
//!
//! Integers, floats, `bool`, strings, `Option`, slices, arrays, `Vec` and
//! the pointer types write themselves straight to JSON
//! ([`Serialize::write_json`]); the rest (`char`, `()`, tuples, `VecDeque`
//! and the maps) render through their [`Value`] tree, whose own
//! `write_json` is the tree renderer.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use crate::json::Writer;
use crate::Value;

/// Conversion of a Rust value into the [`Value`] tree data model, and
/// straight into JSON text.
///
/// Derivable with `#[derive(Serialize)]`: the derive expands to a visitor
/// over the type's fields (structs serialize as insertion-ordered maps,
/// enums as externally tagged values, matching `serde_json`'s default
/// representation), once as [`Serialize::to_value`] and once as
/// [`Serialize::write_json`].
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;

    /// Writes `self` as JSON, the same bytes as its [`Value`] tree renders
    /// to. [`json::to_string`](crate::json::to_string) and
    /// [`json::to_string_pretty`](crate::json::to_string_pretty) call this,
    /// so a type that streams its fields here renders without building a
    /// tree. The default renders [`Serialize::to_value`], which keeps a
    /// hand-written impl correct without a method of its own.
    fn write_json(&self, w: &mut Writer) {
        self.to_value().write_json(w);
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }

            fn write_json(&self, w: &mut Writer) {
                w.write_u64(*self as u64);
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }

            fn write_json(&self, w: &mut Writer) {
                w.write_i64(*self as i64);
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }

    fn write_json(&self, w: &mut Writer) {
        w.write_float(f64::from(*self));
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }

    fn write_json(&self, w: &mut Writer) {
        w.write_float(*self);
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, w: &mut Writer) {
        w.write_bool(*self);
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }

    fn write_json(&self, w: &mut Writer) {
        w.write_string(self);
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn write_json(&self, w: &mut Writer) {
        w.write_string(self);
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

/// The tree renderer: every value without a `write_json` of its own
/// renders through here.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, w: &mut Writer) {
        match self {
            Value::Null => w.write_null(),
            Value::Bool(b) => w.write_bool(*b),
            Value::UInt(n) => w.write_u64(*n),
            Value::Int(n) => w.write_i64(*n),
            Value::Float(x) => w.write_float(*x),
            Value::Str(s) => w.write_string(s),
            Value::Seq(items) => items.write_json(w),
            Value::Map(entries) => {
                w.begin_map();
                for (i, (key, value)) in entries.iter().enumerate() {
                    w.key(i, key);
                    value.write_json(w);
                }
                w.end_map(entries.len());
            }
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.write_null(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, w: &mut Writer) {
        w.begin_seq();
        for (i, item) in self.iter().enumerate() {
            w.element(i);
            item.write_json(w);
        }
        w.end_seq(self.len());
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }

    fn write_json(&self, w: &mut Writer) {
        self.as_slice().write_json(w);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }

    fn write_json(&self, w: &mut Writer) {
        self.as_slice().write_json(w);
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// Maps serialize as insertion-ordered JSON objects when every key renders
/// as a string, and as a sequence of `[key, value]` pairs otherwise (the
/// `serde_json` convention for non-string keys). Hash maps are sorted by
/// serialized key so output is deterministic across runs.
fn map_to_value(pairs: Vec<(Value, Value)>) -> Value {
    if pairs.iter().all(|(k, _)| matches!(k, Value::Str(_))) {
        Value::Map(
            pairs
                .into_iter()
                .map(|(k, v)| match k {
                    Value::Str(s) => (s, v),
                    _ => unreachable!("checked above"),
                })
                .collect(),
        )
    } else {
        Value::Seq(
            pairs
                .into_iter()
                .map(|(k, v)| Value::Seq(vec![k, v]))
                .collect(),
        )
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        let mut pairs: Vec<(Value, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_value(), v.to_value()))
            .collect();
        pairs.sort_by_cached_key(|(k, _)| k.to_json());
        map_to_value(pairs)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(
            self.iter()
                .map(|(k, v)| (k.to_value(), v.to_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_containers() {
        assert_eq!(3u16.to_value(), Value::UInt(3));
        assert_eq!((-3i8).to_value(), Value::Int(-3));
        assert_eq!(1.5f32.to_value(), Value::Float(1.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::Str("x".into()));
        assert_eq!('y'.to_value(), Value::Str("y".into()));
        assert_eq!(().to_value(), Value::Null);
        assert_eq!(None::<u8>.to_value(), Value::Null);
        assert_eq!(Some(1u8).to_value(), Value::UInt(1));
        assert_eq!(
            vec![1u8, 2].to_value(),
            Value::Seq(vec![Value::UInt(1), Value::UInt(2)])
        );
        assert_eq!([1u8, 2].to_value(), vec![1u8, 2].to_value());
        assert_eq!(
            (1u8, "a").to_value(),
            Value::Seq(vec![Value::UInt(1), Value::Str("a".into())])
        );
        assert_eq!(Box::new(7u8).to_value(), Value::UInt(7));
        assert_eq!(Arc::new(7u8).to_value(), Value::UInt(7));
        assert_eq!(Rc::new(7u8).to_value(), Value::UInt(7));
    }

    #[test]
    fn string_keyed_maps_become_objects_sorted_by_key() {
        let mut m = HashMap::new();
        m.insert("b".to_owned(), 2u8);
        m.insert("a".to_owned(), 1u8);
        assert_eq!(
            m.to_value(),
            Value::Map(vec![
                ("a".to_owned(), Value::UInt(1)),
                ("b".to_owned(), Value::UInt(2)),
            ])
        );
    }

    #[test]
    fn non_string_keyed_maps_become_pair_sequences() {
        let mut m = BTreeMap::new();
        m.insert(2u8, "b");
        m.insert(1u8, "a");
        assert_eq!(
            m.to_value(),
            Value::Seq(vec![
                Value::Seq(vec![Value::UInt(1), Value::Str("a".into())]),
                Value::Seq(vec![Value::UInt(2), Value::Str("b".into())]),
            ])
        );
    }
}
