//! Local stand-in for `serde_derive` so the workspace builds without network
//! access to a crate registry.
//!
//! `#[derive(Serialize)]` expands to a real field-visitor implementation of
//! the shim `serde::Serialize` trait: structs serialize as insertion-ordered
//! maps of their fields, newtype/tuple structs as their contents, and enums
//! as externally tagged values — matching `serde_json`'s default data model.
//! It emits both methods with that one shape: `to_value` builds the
//! `serde::Value` tree, and `write_json` drives a `serde::json::Writer`
//! directly, writing field and variant names as pre-escaped `"name":`
//! literals, so `serde::json::to_string` of a derived value builds no tree.
//! `#[derive(Deserialize)]` expands to the exact inverse (a `from_value`
//! implementation of the shim `serde::Deserialize` trait), so derived types
//! round-trip through `serde::json`. The parser is hand-rolled over
//! `proc_macro::TokenStream` (no `syn`), which is sufficient for the plain
//! structs and enums this workspace derives on: named/tuple/unit structs,
//! optional simple type parameters, and enums with unit, tuple, and struct
//! variants.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Expands to an implementation of the shim `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match item.shape {
        Shape::NamedStruct(ref fields) => named_struct_impl(&item, fields),
        Shape::TupleStruct(arity) => tuple_struct_impl(&item, arity),
        Shape::UnitStruct => unit_struct_impl(&item),
        Shape::Enum(ref variants) => enum_impl(&item, variants),
    };
    code.parse().expect("generated Serialize impl must parse")
}

/// Expands to an implementation of the shim `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match item.shape {
        Shape::NamedStruct(ref fields) => de_named_struct_impl(&item, fields),
        Shape::TupleStruct(arity) => de_tuple_struct_impl(&item, arity),
        Shape::UnitStruct => de_unit_struct_impl(&item),
        Shape::Enum(ref variants) => de_enum_impl(&item, variants),
    };
    code.parse().expect("generated Deserialize impl must parse")
}

struct Item {
    name: String,
    /// Generic parameters in declaration order (e.g. `[Type("M")]` for
    /// `struct Foo<M> { .. }`).
    generics: Vec<GenericParam>,
    shape: Shape,
}

enum GenericParam {
    /// `'a` — emitted verbatim, no bound.
    Lifetime(String),
    /// `T` or `T: Bound` — the impl re-declares any original bounds and adds
    /// `::serde::Serialize` on top.
    Type { name: String, bounds: String },
    /// `const N: usize` — emitted with its type in the impl's parameter
    /// list and as a bare `N` in the self-type's arguments.
    Const { name: String, ty: String },
}

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

/// `impl<M: ::serde::Serialize> ::serde::Serialize for X<M>` header pieces
/// (`bound` is `"Serialize"` or `"Deserialize"`).
fn impl_header(item: &Item, bound: &str) -> (String, String) {
    if item.generics.is_empty() {
        return (String::new(), item.name.clone());
    }
    let params: Vec<String> = item
        .generics
        .iter()
        .map(|g| match g {
            GenericParam::Lifetime(l) => l.clone(),
            GenericParam::Type { name, bounds } if bounds.is_empty() => {
                format!("{name}: ::serde::{bound}")
            }
            GenericParam::Type { name, bounds } => {
                format!("{name}: {bounds} + ::serde::{bound}")
            }
            GenericParam::Const { name, ty } => format!("const {name}: {ty}"),
        })
        .collect();
    let args: Vec<String> = item
        .generics
        .iter()
        .map(|g| match g {
            GenericParam::Lifetime(l) => l.clone(),
            GenericParam::Type { name, .. } => name.clone(),
            GenericParam::Const { name, .. } => name.clone(),
        })
        .collect();
    (
        format!("<{}>", params.join(", ")),
        format!("{}<{}>", item.name, args.join(", ")),
    )
}

/// The `write_json` body of a map of `fields`, each bound to the expression
/// `access(field)`: the fields in order, each under its pre-escaped name.
fn write_map(fields: &[String], access: impl Fn(&str) -> String) -> String {
    let entries: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "__w.field({i}, \"\\\"{f}\\\":\");\n\
                 ::serde::Serialize::write_json({value}, __w);\n",
                value = access(f)
            )
        })
        .collect();
    format!(
        "__w.begin_map();\n{entries}__w.end_map({len});\n",
        len = fields.len()
    )
}

/// The `write_json` body of a sequence of `items` (expressions of
/// references to the elements).
fn write_seq(items: &[String]) -> String {
    let elements: String = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            format!("__w.element({i});\n::serde::Serialize::write_json({item}, __w);\n")
        })
        .collect();
    format!(
        "__w.begin_seq();\n{elements}__w.end_seq({len});\n",
        len = items.len()
    )
}

/// The `write_json` body of the externally tagged `{"variant": payload}`.
fn write_tagged(variant: &str, payload: &str) -> String {
    format!("__w.begin_map();\n__w.field(0, \"\\\"{variant}\\\":\");\n{payload}__w.end_map(1);\n")
}

/// `impl{params} ::serde::Serialize for {ty}` with both methods.
fn serialize_impl(item: &Item, to_value: &str, write_json: &str) -> String {
    let (params, ty) = impl_header(item, "Serialize");
    format!(
        "impl{params} ::serde::Serialize for {ty} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n{to_value}\n}}\n\
             fn write_json(&self, __w: &mut ::serde::json::Writer) {{\n{write_json}}}\n\
         }}"
    )
}

fn named_struct_impl(item: &Item, fields: &[String]) -> String {
    let pushes: String = fields
        .iter()
        .map(|f| {
            format!(
                "fields.push((\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})));\n"
            )
        })
        .collect();
    let count = fields.len();
    let to_value = format!(
        "let mut fields: Vec<(String, ::serde::Value)> = Vec::with_capacity({count});\n\
         {pushes}\
         ::serde::Value::Map(fields)"
    );
    serialize_impl(
        item,
        &to_value,
        &write_map(fields, |f| format!("&self.{f}")),
    )
}

fn tuple_struct_impl(item: &Item, arity: usize) -> String {
    let items: Vec<String> = (0..arity).map(|i| format!("&self.{i}")).collect();
    let (to_value, write_json) = if arity == 1 {
        // Newtype structs serialize transparently as their contents.
        (
            "::serde::Serialize::to_value(&self.0)".to_string(),
            "::serde::Serialize::write_json(&self.0, __w);\n".to_string(),
        )
    } else {
        let values: Vec<String> = items
            .iter()
            .map(|i| format!("::serde::Serialize::to_value({i})"))
            .collect();
        (
            format!("::serde::Value::Seq(vec![{}])", values.join(", ")),
            write_seq(&items),
        )
    };
    serialize_impl(item, &to_value, &write_json)
}

fn unit_struct_impl(item: &Item) -> String {
    let name = &item.name;
    serialize_impl(
        item,
        &format!("::serde::Value::Str(\"{name}\".to_string())"),
        &format!("__w.write_string(\"{name}\");\n"),
    )
}

fn enum_impl(item: &Item, variants: &[Variant]) -> String {
    let name = &item.name;
    let mut to_value_arms = String::new();
    let mut write_arms = String::new();
    for v in variants {
        let vname = &v.name;
        match &v.kind {
            VariantKind::Unit => {
                to_value_arms.push_str(&format!(
                    "{name}::{vname} => ::serde::Value::Str(\"{vname}\".to_string()),\n"
                ));
                write_arms.push_str(&format!(
                    "{name}::{vname} => __w.write_string(\"{vname}\"),\n"
                ));
            }
            VariantKind::Tuple(arity) => {
                let binds: Vec<String> = (0..*arity).map(|i| format!("f{i}")).collect();
                let (payload, write_payload) = if *arity == 1 {
                    (
                        "::serde::Serialize::to_value(f0)".to_string(),
                        "::serde::Serialize::write_json(f0, __w);\n".to_string(),
                    )
                } else {
                    let items: Vec<String> = binds
                        .iter()
                        .map(|b| format!("::serde::Serialize::to_value({b})"))
                        .collect();
                    (
                        format!("::serde::Value::Seq(vec![{}])", items.join(", ")),
                        write_seq(&binds),
                    )
                };
                let binds = binds.join(", ");
                to_value_arms.push_str(&format!(
                    "{name}::{vname}({binds}) => ::serde::Value::Map(vec![(\
                         \"{vname}\".to_string(), {payload})]),\n"
                ));
                write_arms.push_str(&format!(
                    "{name}::{vname}({binds}) => {{\n{}}}\n",
                    write_tagged(vname, &write_payload)
                ));
            }
            VariantKind::Struct(fields) => {
                let pushes: Vec<String> = fields
                    .iter()
                    .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))"))
                    .collect();
                let binds = fields.join(", ");
                to_value_arms.push_str(&format!(
                    "{name}::{vname} {{ {binds} }} => ::serde::Value::Map(vec![(\
                         \"{vname}\".to_string(), \
                         ::serde::Value::Map(vec![{pushes}]))]),\n",
                    pushes = pushes.join(", ")
                ));
                write_arms.push_str(&format!(
                    "{name}::{vname} {{ {binds} }} => {{\n{}}}\n",
                    write_tagged(vname, &write_map(fields, str::to_string))
                ));
            }
        }
    }
    serialize_impl(
        item,
        &format!("match self {{\n{to_value_arms}}}"),
        &format!("match self {{\n{write_arms}}}\n"),
    )
}

fn de_named_struct_impl(item: &Item, fields: &[String]) -> String {
    let name = &item.name;
    let reads: Vec<String> = fields
        .iter()
        .map(|f| format!("{f}: ::serde::de::field(value, \"{name}\", \"{f}\")?"))
        .collect();
    let (params, ty) = impl_header(item, "Deserialize");
    format!(
        "impl{params} ::serde::Deserialize for {ty} {{\n\
             fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::de::Error> {{\n\
                 Ok({name} {{ {reads} }})\n\
             }}\n\
         }}",
        reads = reads.join(", ")
    )
}

fn de_tuple_struct_impl(item: &Item, arity: usize) -> String {
    let name = &item.name;
    let (params, ty) = impl_header(item, "Deserialize");
    let body = if arity == 1 {
        // Newtype structs deserialize transparently from their contents.
        format!("Ok({name}(::serde::Deserialize::from_value(value)?))")
    } else {
        let reads: Vec<String> = (0..arity)
            .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
            .collect();
        format!(
            "let items = ::serde::de::elements(value, \"{name}\", {arity})?;\n\
             Ok({name}({reads}))",
            reads = reads.join(", ")
        )
    };
    format!(
        "impl{params} ::serde::Deserialize for {ty} {{\n\
             fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::de::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

fn de_unit_struct_impl(item: &Item) -> String {
    let name = &item.name;
    let (params, ty) = impl_header(item, "Deserialize");
    format!(
        "impl{params} ::serde::Deserialize for {ty} {{\n\
             fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::de::Error> {{\n\
                 match value {{\n\
                     ::serde::Value::Str(s) if s == \"{name}\" => Ok({name}),\n\
                     other => Err(::serde::de::Error::unexpected(\"{name}\", \"the unit struct name\", other)),\n\
                 }}\n\
             }}\n\
         }}"
    )
}

fn de_enum_impl(item: &Item, variants: &[Variant]) -> String {
    let name = &item.name;
    // Unit variants arrive as a bare string, payload-carrying variants as an
    // externally tagged single-entry map — the exact forms `enum_impl` emits.
    let unit_arms: String = variants
        .iter()
        .filter(|v| matches!(v.kind, VariantKind::Unit))
        .map(|v| {
            format!(
                "\"{vname}\" => return Ok({name}::{vname}),\n",
                vname = v.name
            )
        })
        .collect();
    let tagged_arms: String = variants
        .iter()
        .filter_map(|v| {
            let vname = &v.name;
            match &v.kind {
                VariantKind::Unit => None,
                VariantKind::Tuple(arity) if *arity == 1 => Some(format!(
                    "\"{vname}\" => return Ok({name}::{vname}(\
                         ::serde::Deserialize::from_value(payload)?)),\n"
                )),
                VariantKind::Tuple(arity) => {
                    let reads: Vec<String> = (0..*arity)
                        .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                        .collect();
                    Some(format!(
                        "\"{vname}\" => {{\n\
                             let items = ::serde::de::elements(payload, \"{name}::{vname}\", {arity})?;\n\
                             return Ok({name}::{vname}({reads}));\n\
                         }}\n",
                        reads = reads.join(", ")
                    ))
                }
                VariantKind::Struct(fields) => {
                    let reads: Vec<String> = fields
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::de::field(payload, \"{name}::{vname}\", \"{f}\")?"
                            )
                        })
                        .collect();
                    Some(format!(
                        "\"{vname}\" => return Ok({name}::{vname} {{ {reads} }}),\n",
                        reads = reads.join(", ")
                    ))
                }
            }
        })
        .collect();
    let (params, ty) = impl_header(item, "Deserialize");
    format!(
        "impl{params} ::serde::Deserialize for {ty} {{\n\
             fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::de::Error> {{\n\
                 #[allow(unused_variables)]\n\
                 match value {{\n\
                     ::serde::Value::Str(s) => match s.as_str() {{\n\
                         {unit_arms}\
                         other => return Err(::serde::de::Error::unknown_variant(\"{name}\", other)),\n\
                     }},\n\
                     ::serde::Value::Map(entries) if entries.len() == 1 => {{\n\
                         let (tag, payload) = &entries[0];\n\
                         match tag.as_str() {{\n\
                             {tagged_arms}\
                             other => return Err(::serde::de::Error::unknown_variant(\"{name}\", other)),\n\
                         }}\n\
                     }}\n\
                     _ => {{}}\n\
                 }}\n\
                 Err(::serde::de::Error::unexpected(\"{name}\", \"an externally tagged enum value\", value))\n\
             }}\n\
         }}"
    )
}

// ---------------------------------------------------------------------------
// Token-stream parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    skip_attributes_and_visibility(&tokens, &mut pos);

    let keyword = expect_ident(&tokens, &mut pos);
    let name = expect_ident(&tokens, &mut pos);
    let generics = parse_generics(&tokens, &mut pos);

    match keyword.as_str() {
        "struct" => {
            // A where clause may sit between the generics and a brace body.
            skip_where_clause(&tokens, &mut pos);
            match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item {
                    name,
                    generics,
                    shape: Shape::NamedStruct(parse_named_fields(g.stream())),
                },
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Item {
                    name,
                    generics,
                    shape: Shape::TupleStruct(count_top_level_fields(g.stream())),
                },
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item {
                    name,
                    generics,
                    shape: Shape::UnitStruct,
                },
                other => panic!("unsupported struct body: {other:?}"),
            }
        }
        "enum" => {
            skip_where_clause(&tokens, &mut pos);
            match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item {
                    name,
                    generics,
                    shape: Shape::Enum(parse_variants(g.stream())),
                },
                other => panic!("unsupported enum body: {other:?}"),
            }
        }
        other => panic!("derive(Serialize) supports structs and enums, got `{other}`"),
    }
}

fn skip_attributes_and_visibility(tokens: &[TokenTree], pos: &mut usize) {
    loop {
        match tokens.get(*pos) {
            // `#[...]` attribute (doc comments included).
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *pos += 1;
                if let Some(TokenTree::Group(_)) = tokens.get(*pos) {
                    *pos += 1;
                }
            }
            // `pub`, optionally `pub(crate)` / `pub(super)` / `pub(in ...)`.
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                *pos += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*pos) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *pos += 1;
                    }
                }
            }
            _ => return,
        }
    }
}

fn expect_ident(tokens: &[TokenTree], pos: &mut usize) -> String {
    match tokens.get(*pos) {
        Some(TokenTree::Ident(i)) => {
            *pos += 1;
            i.to_string()
        }
        other => panic!("expected identifier, got {other:?}"),
    }
}

/// Parses `<A, B: Bound, 'a, const N: usize>` if present, returning the
/// parameters in declaration order.
fn parse_generics(tokens: &[TokenTree], pos: &mut usize) -> Vec<GenericParam> {
    match tokens.get(*pos) {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {}
        _ => return Vec::new(),
    }
    *pos += 1;
    // Split the parameter list into per-parameter token slices at depth-1
    // commas, then classify each slice.
    let mut depth = 1usize;
    let mut current: Vec<TokenTree> = Vec::new();
    let mut params = Vec::new();
    while depth > 0 {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                depth += 1;
                current.push(tokens[*pos].clone());
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    params.extend(parse_generic_param(&current));
                } else {
                    current.push(tokens[*pos].clone());
                }
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 1 => {
                params.extend(parse_generic_param(&current));
                current.clear();
            }
            Some(t) => current.push(t.clone()),
            None => panic!("unterminated generic parameter list"),
        }
        *pos += 1;
    }
    params
}

/// Classifies one generic parameter's tokens (bounds and defaults stripped).
fn parse_generic_param(slice: &[TokenTree]) -> Option<GenericParam> {
    match slice.first()? {
        // `'a` (optionally with bounds, which the impl does not repeat).
        TokenTree::Punct(p) if p.as_char() == '\'' => match slice.get(1) {
            Some(TokenTree::Ident(i)) => Some(GenericParam::Lifetime(format!("'{i}"))),
            other => panic!("expected lifetime identifier, got {other:?}"),
        },
        TokenTree::Ident(i) if i.to_string() == "const" => {
            // `const N: Type` (optionally `= default`, which is stripped).
            let name = match slice.get(1) {
                Some(TokenTree::Ident(n)) => n.to_string(),
                other => panic!("expected const parameter name, got {other:?}"),
            };
            match slice.get(2) {
                Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                other => panic!("expected `:` after const parameter name, got {other:?}"),
            }
            Some(GenericParam::Const {
                name,
                ty: tokens_to_string(strip_default(&slice[3..])),
            })
        }
        // `T`, `T: Bound + …`, `T = Default` — the impl re-declares any
        // bounds (so `struct Foo<T: Clone>` still compiles) and strips
        // defaults.
        TokenTree::Ident(i) => {
            let bounds = match slice.get(1) {
                Some(TokenTree::Punct(p)) if p.as_char() == ':' => {
                    tokens_to_string(strip_default(&slice[2..]))
                }
                _ => String::new(),
            };
            Some(GenericParam::Type {
                name: i.to_string(),
                bounds,
            })
        }
        other => panic!("unsupported generic parameter starting at {other:?}"),
    }
}

/// Truncates a parameter's token slice at a top-level `=` (a default value,
/// which must not be repeated on an impl). `=` inside angle brackets (an
/// associated-type binding like `Iterator<Item = u8>`) is kept.
fn strip_default(tokens: &[TokenTree]) -> &[TokenTree] {
    let mut angle_depth = 0usize;
    for (i, token) in tokens.iter().enumerate() {
        match token {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
            }
            TokenTree::Punct(p) if p.as_char() == '=' && angle_depth == 0 => {
                return &tokens[..i];
            }
            _ => {}
        }
    }
    tokens
}

/// Joins tokens back into source text. A space is inserted only between two
/// identifier-like tokens (which would otherwise fuse when re-lexed); punct
/// runs like `::` stay glued so paths survive the round-trip.
fn tokens_to_string(tokens: &[TokenTree]) -> String {
    fn ident_like(c: char) -> bool {
        c.is_alphanumeric() || c == '_'
    }
    let mut out = String::new();
    for token in tokens {
        let text = token.to_string();
        if let (Some(last), Some(first)) = (out.chars().last(), text.chars().next()) {
            if ident_like(last) && ident_like(first) {
                out.push(' ');
            }
        }
        out.push_str(&text);
    }
    out
}

fn skip_where_clause(tokens: &[TokenTree], pos: &mut usize) {
    if let Some(TokenTree::Ident(i)) = tokens.get(*pos) {
        if i.to_string() == "where" {
            while let Some(t) = tokens.get(*pos) {
                match t {
                    TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => return,
                    TokenTree::Punct(p) if p.as_char() == ';' => return,
                    _ => *pos += 1,
                }
            }
        }
    }
}

/// Extracts field names from the body of a named-field struct or struct
/// variant: `name: Type, ...` with attributes, visibility, and generic types
/// (whose angle brackets may hide top-level commas) handled.
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        fields.push(expect_ident(&tokens, &mut pos));
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => panic!("expected `:` after field name, got {other:?}"),
        }
        skip_type(&tokens, &mut pos);
        if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
            if p.as_char() == ',' {
                pos += 1;
            }
        }
    }
    fields
}

/// Number of fields in a tuple-struct/tuple-variant body.
fn count_top_level_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut pos = 0;
    let mut count = 0;
    while pos < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        count += 1;
        skip_type(&tokens, &mut pos);
        if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
            if p.as_char() == ',' {
                pos += 1;
            }
        }
    }
    count
}

/// Advances past one type, stopping at a top-level `,` (or the end). Tracks
/// `<`/`>` nesting because generic arguments are not token groups.
fn skip_type(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0usize;
    while let Some(t) = tokens.get(*pos) {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => return,
            _ => {}
        }
        *pos += 1;
    }
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut pos);
        let kind = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_top_level_fields(g.stream());
                pos += 1;
                VariantKind::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                pos += 1;
                VariantKind::Struct(fields)
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`= expr`) if present.
        if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
            if p.as_char() == '=' {
                pos += 1;
                while let Some(t) = tokens.get(pos) {
                    if let TokenTree::Punct(p) = t {
                        if p.as_char() == ',' {
                            break;
                        }
                    }
                    pos += 1;
                }
            }
        }
        if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
            if p.as_char() == ',' {
                pos += 1;
            }
        }
        variants.push(Variant { name, kind });
    }
    variants
}
