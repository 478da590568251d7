//! Local stand-in for the `serde` facade so the workspace builds without
//! network access to a crate registry.
//!
//! Unlike the original marker-only shim, this version is *real enough to
//! round-trip*: [`Serialize`] converts a value into the [`Value`] tree data
//! model and also writes it straight to JSON text through a
//! [`json::Writer`] ([`Serialize::write_json`]), [`Deserialize`] converts a
//! [`Value`] tree back, the derive macros (re-exported from the sibling
//! `serde_derive` shim) expand to field-visitor `to_value` / `write_json` /
//! `from_value` implementations over the type's fields/variants, and
//! [`json`] renders any serializable value as JSON text without building a
//! tree and parses JSON text back ([`json::parse`] / [`json::from_str`]).
//! That is the subset the repository needs to write machine-readable figure
//! artifacts, to name runs by the hash of their JSON, and to read sharded
//! sweep outcomes back for merging; the full `Serializer`/`Deserializer`
//! driver machinery of the real `serde` is intentionally out of scope.
//! Swapping this shim for the real `serde` + `serde_json` is a
//! workspace-manifest change plus replacing `Serialize::to_value` /
//! `Deserialize::from_value` call sites with `serde_json::to_value` /
//! `serde_json::from_value`; `write_json` has no call site outside the shim
//! and the derive, since `json::to_string` / `to_string_pretty` keep the
//! names and signatures of their `serde_json` counterparts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

pub mod de;
pub mod json;
mod ser;
mod value;

pub use de::Deserialize;
pub use ser::Serialize;
pub use value::Value;
