//! Offline shim for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` for the sibling `serde` shim.
//!
//! The build environment has no crates.io access, so there is no `syn` or
//! `quote`; the input item is parsed directly from the proc-macro token
//! stream. That is tractable because the supported shapes are exactly the
//! ones this workspace derives on:
//!
//! * structs with named fields
//! * tuple structs (a single field serializes transparently, newtype-style;
//!   more fields serialize as an array)
//! * enums whose variants are unit (with optional explicit discriminants),
//!   newtype/tuple, or struct-like
//!
//! Fields of a named struct accept three `#[serde(...)]` attributes,
//! spelled as real serde spells them:
//!
//! * `default` — a missing key deserializes as `Default::default()`
//! * `default = "path"` — a missing key deserializes as `path()`
//! * `skip_serializing_if = "path"` — the key is omitted when
//!   `path(&self.field)` is true
//!
//! Every other `serde` key, and `#[serde(...)]` in any other position
//! (container, variant, variant field, tuple field), is rejected, as are
//! generic parameters and unions. Each produces a `compile_error!` naming
//! this crate, so a future reader hits a signpost instead of a confusing
//! expansion failure.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What we learned about the item under derive.
enum Item {
    /// `struct S { a: T, b: U }` — fields in declaration order.
    NamedStruct { name: String, fields: Vec<Field> },
    /// `struct S(T, U);` — number of unnamed fields.
    TupleStruct { name: String, arity: usize },
    /// `struct S;`
    UnitStruct { name: String },
    /// `enum E { ... }`
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// One named-struct field and its `#[serde(...)]` settings.
struct Field {
    name: String,
    /// Function producing the value of a missing key; `None` makes the
    /// key required.
    default: Option<String>,
    /// Predicate on `&self.field` that omits the key when true.
    skip_if: Option<String>,
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// Derive `serde::Serialize` (shim edition).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derive `serde::Deserialize` (shim edition).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => generate(&item)
            .parse()
            .expect("serde_derive shim generated invalid Rust"),
        Err(msg) => format!("::core::compile_error!({msg:?});").parse().unwrap(),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    reject_serde(&attributes(&tokens, &mut i), "a container")?;
    skip_visibility(&tokens, &mut i);

    let kind = match ident_at(&tokens, i) {
        Some(k) if k == "struct" || k == "enum" => k,
        _ => return Err("serde shim derive: expected `struct` or `enum`".to_string()),
    };
    i += 1;

    let name = ident_at(&tokens, i).ok_or("serde shim derive: expected type name")?;
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive: generic type `{name}` is not supported \
                 (see shims/serde_derive)"
            ));
        }
    }

    match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let body: Vec<TokenTree> = g.stream().into_iter().collect();
            if kind == "struct" {
                let fields = parse_named_fields(&body)?
                    .into_iter()
                    .map(|(name, attrs)| parse_field(name, attrs))
                    .collect::<Result<_, _>>()?;
                Ok(Item::NamedStruct { name, fields })
            } else {
                Ok(Item::Enum {
                    name,
                    variants: parse_variants(&body)?,
                })
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            if kind != "struct" {
                return Err("serde shim derive: malformed enum".to_string());
            }
            let body: Vec<TokenTree> = g.stream().into_iter().collect();
            Ok(Item::TupleStruct {
                name,
                arity: count_tuple_fields(&body)?,
            })
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' && kind == "struct" => {
            Ok(Item::UnitStruct { name })
        }
        _ => Err(format!("serde shim derive: malformed `{kind} {name}`")),
    }
}

fn ident_at(tokens: &[TokenTree], i: usize) -> Option<String> {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

/// Skip `#[...]` (and `#![...]`) attribute groups, returning the
/// argument tokens (everything after `serde`) of each `#[serde...]`.
fn attributes(tokens: &[TokenTree], i: &mut usize) -> Vec<TokenStream> {
    let mut serde = Vec::new();
    loop {
        let mut j = *i;
        if !matches!(tokens.get(j), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            return serde;
        }
        j += 1;
        if matches!(tokens.get(j), Some(TokenTree::Punct(p)) if p.as_char() == '!') {
            j += 1;
        }
        match tokens.get(j) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                let mut inner = g.stream().into_iter();
                if matches!(inner.next(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
                    serde.push(inner.collect());
                }
                *i = j + 1;
            }
            _ => return serde,
        }
    }
}

/// Fail if any `#[serde(...)]` sits somewhere the shim does not read it.
fn reject_serde(attrs: &[TokenStream], position: &str) -> Result<(), String> {
    if attrs.is_empty() {
        return Ok(());
    }
    Err(format!(
        "serde shim derive: `#[serde(...)]` is not supported on {position}; \
         only named-struct fields take it (see shims/serde_derive)"
    ))
}

/// Read one named-struct field's `#[serde(...)]` attributes.
fn parse_field(name: String, attrs: Vec<TokenStream>) -> Result<Field, String> {
    let mut field = Field {
        name,
        default: None,
        skip_if: None,
    };
    let err = |what: String| {
        Err(format!(
            "serde shim derive: {what} on field `{}`; supported: `default`, \
             `default = \"path\"`, `skip_serializing_if = \"path\"` (see shims/serde_derive)",
            field.name
        ))
    };
    let needs_path = |key: &str| format!("`{key}` needs a string path, as in `{key} = \"path\"`");
    for attr in attrs {
        let args: Vec<TokenTree> = match attr.into_iter().collect::<Vec<_>>().as_slice() {
            [TokenTree::Group(g)] if g.delimiter() == Delimiter::Parenthesis => {
                g.stream().into_iter().collect()
            }
            _ => return err("malformed `#[serde]` attribute".to_string()),
        };
        for arg in args.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
            let (key, value) = match arg {
                [] => continue,
                [TokenTree::Ident(k), value @ ..] => (k.to_string(), value),
                _ => return err("malformed `#[serde(...)]` argument".to_string()),
            };
            let path = match value {
                [] => None,
                [TokenTree::Punct(eq), TokenTree::Literal(lit)] if eq.as_char() == '=' => {
                    let lit = lit.to_string();
                    match lit.strip_prefix('"').and_then(|l| l.strip_suffix('"')) {
                        Some(path) if path.parse::<TokenStream>().is_ok() => Some(path.to_string()),
                        _ => return err(needs_path(&key)),
                    }
                }
                _ => return err(needs_path(&key)),
            };
            match (key.as_str(), path) {
                ("default", None) => {
                    field.default = Some("::core::default::Default::default".to_string())
                }
                ("default", Some(path)) => field.default = Some(path),
                ("skip_serializing_if", Some(path)) => field.skip_if = Some(path),
                ("skip_serializing_if", None) => return err(needs_path(&key)),
                (other, _) => return err(format!("unsupported serde attribute `{other}`")),
            }
        }
    }
    Ok(field)
}

/// Skip `pub`, `pub(crate)`, `pub(in ...)`.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Advance past a type (or discriminant expression) to the next top-level
/// comma, tracking `<`/`>` nesting so commas inside generics don't split.
fn skip_to_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle = 0i32;
    while let Some(t) = tokens.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

/// Field names in declaration order, each with its `#[serde...]` tokens.
fn parse_named_fields(tokens: &[TokenTree]) -> Result<Vec<(String, Vec<TokenStream>)>, String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = attributes(tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_visibility(tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => {
                return Err(format!(
                    "serde shim derive: expected field name, got {other:?}"
                ))
            }
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("serde shim derive: expected `:`, got {other:?}")),
        }
        skip_to_comma(tokens, &mut i);
        i += 1; // past the comma (or end)
        fields.push((name, attrs));
    }
    Ok(fields)
}

fn count_tuple_fields(tokens: &[TokenTree]) -> Result<usize, String> {
    let mut n = 0;
    let mut i = 0;
    while i < tokens.len() {
        reject_serde(&attributes(tokens, &mut i), "tuple fields")?;
        skip_visibility(tokens, &mut i);
        if i >= tokens.len() {
            break; // trailing comma
        }
        skip_to_comma(tokens, &mut i);
        i += 1;
        n += 1;
    }
    Ok(n)
}

fn parse_variants(tokens: &[TokenTree]) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        reject_serde(&attributes(tokens, &mut i), "enum variants")?;
        if i >= tokens.len() {
            break;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => {
                return Err(format!(
                    "serde shim derive: expected variant name, got {other:?}"
                ))
            }
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                VariantShape::Tuple(count_tuple_fields(&body)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                let mut names = Vec::new();
                for (field, attrs) in parse_named_fields(&body)? {
                    reject_serde(&attrs, "enum-variant fields")?;
                    names.push(field);
                }
                VariantShape::Named(names)
            }
            _ => VariantShape::Unit,
        };
        // Skip an explicit discriminant (`= 0x01`) if present.
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == '=' {
                i += 1;
                skip_to_comma(tokens, &mut i);
            }
        }
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            other => {
                return Err(format!(
                    "serde shim derive: expected `,` after variant, got {other:?}"
                ))
            }
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::NamedStruct { name, fields } => {
            let pushes = fields
                .iter()
                .map(|field| {
                    let f = &field.name;
                    let push = format!(
                        "__fields.push((::std::string::String::from({f:?}), \
                         ::serde::Serialize::to_value(&self.{f})));"
                    );
                    match &field.skip_if {
                        Some(pred) => format!("if !{pred}(&self.{f}) {{ {push} }}"),
                        None => push,
                    }
                })
                .collect::<String>();
            (
                name,
                format!(
                    "let mut __fields = ::std::vec::Vec::with_capacity({});\n\
                     {pushes}\n\
                     ::serde::Value::Object(__fields)",
                    fields.len()
                ),
            )
        }
        Item::TupleStruct { name, arity: 1 } => {
            (name, "::serde::Serialize::to_value(&self.0)".to_string())
        }
        Item::TupleStruct { name, arity } => {
            let items = (0..*arity)
                .map(|k| format!("::serde::Serialize::to_value(&self.{k})"))
                .collect::<Vec<_>>()
                .join(", ");
            (name, format!("::serde::Value::Array(::std::vec![{items}])"))
        }
        Item::UnitStruct { name } => (name, "::serde::Value::Null".to_string()),
        Item::Enum { name, variants } => {
            let arms = variants
                .iter()
                .map(|v| gen_serialize_arm(name, v))
                .collect::<Vec<_>>()
                .join("\n");
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_serialize_arm(name: &str, v: &Variant) -> String {
    let vn = &v.name;
    match &v.shape {
        VariantShape::Unit => {
            format!("{name}::{vn} => ::serde::Value::Str(::std::string::String::from({vn:?})),")
        }
        VariantShape::Tuple(arity) => {
            let binds = (0..*arity)
                .map(|k| format!("__f{k}"))
                .collect::<Vec<_>>()
                .join(", ");
            let inner = if *arity == 1 {
                "::serde::Serialize::to_value(__f0)".to_string()
            } else {
                let items = (0..*arity)
                    .map(|k| format!("::serde::Serialize::to_value(__f{k})"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("::serde::Value::Array(::std::vec![{items}])")
            };
            format!(
                "{name}::{vn}({binds}) => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from({vn:?}), {inner})]),"
            )
        }
        VariantShape::Named(fields) => {
            let binds = fields.join(", ");
            let pairs = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), ::serde::Serialize::to_value({f}))"
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from({vn:?}), \
                      ::serde::Value::Object(::std::vec![{pairs}]))]),"
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::NamedStruct { name, fields } => {
            let inits = fields
                .iter()
                .map(|field| {
                    let f = &field.name;
                    match &field.default {
                        Some(default) => {
                            format!(
                                "{f}: ::serde::__private::field_or(__fields, {f:?}, {default})?,"
                            )
                        }
                        None => format!(
                            "{f}: ::serde::Deserialize::from_value(\
                             ::serde::__private::field(__fields, {f:?}, {name:?})?)?,"
                        ),
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            (
                name,
                format!(
                    "let __fields = ::serde::__private::as_object(v, {name:?})?;\n\
                     ::std::result::Result::Ok({name} {{ {inits} }})"
                ),
            )
        }
        Item::TupleStruct { name, arity: 1 } => (
            name,
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))"),
        ),
        Item::TupleStruct { name, arity } => {
            let inits = (0..*arity)
                .map(|k| format!("::serde::Deserialize::from_value(&__items[{k}])?"))
                .collect::<Vec<_>>()
                .join(", ");
            (
                name,
                format!(
                    "match v {{\n\
                         ::serde::Value::Array(__items) if __items.len() == {arity} =>\n\
                             ::std::result::Result::Ok({name}({inits})),\n\
                         other => ::std::result::Result::Err(\
                             ::serde::DeError::expected({name:?}, other)),\n\
                     }}"
                ),
            )
        }
        Item::UnitStruct { name } => (
            name,
            format!(
                "match v {{\n\
                     ::serde::Value::Null => ::std::result::Result::Ok({name}),\n\
                     other => ::std::result::Result::Err(\
                         ::serde::DeError::expected({name:?}, other)),\n\
                 }}"
            ),
        ),
        Item::Enum { name, variants } => {
            let unit_arms = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| {
                    let vn = &v.name;
                    format!("{vn:?} => ::std::result::Result::Ok({name}::{vn}),")
                })
                .collect::<Vec<_>>()
                .join("\n");
            let data_arms = variants
                .iter()
                .filter(|v| !matches!(v.shape, VariantShape::Unit))
                .map(|v| gen_deserialize_data_arm(name, v))
                .collect::<Vec<_>>()
                .join("\n");
            (
                name,
                format!(
                    "match v {{\n\
                         ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                             {unit_arms}\n\
                             __other => ::std::result::Result::Err(::serde::DeError::msg(\
                                 ::std::format!(\"unknown variant `{{}}` of {name}\", __other))),\n\
                         }},\n\
                         ::serde::Value::Object(__fields) if __fields.len() == 1 => {{\n\
                             let (__tag, __inner) = &__fields[0];\n\
                             match __tag.as_str() {{\n\
                                 {data_arms}\n\
                                 __other => ::std::result::Result::Err(::serde::DeError::msg(\
                                     ::std::format!(\"unknown variant `{{}}` of {name}\", __other))),\n\
                             }}\n\
                         }}\n\
                         other => ::std::result::Result::Err(\
                             ::serde::DeError::expected({name:?}, other)),\n\
                     }}"
                ),
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize_data_arm(name: &str, v: &Variant) -> String {
    let vn = &v.name;
    match &v.shape {
        VariantShape::Unit => unreachable!("unit variants handled as strings"),
        VariantShape::Tuple(1) => format!(
            "{vn:?} => ::std::result::Result::Ok(\
                 {name}::{vn}(::serde::Deserialize::from_value(__inner)?)),"
        ),
        VariantShape::Tuple(arity) => {
            let inits = (0..*arity)
                .map(|k| format!("::serde::Deserialize::from_value(&__items[{k}])?"))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{vn:?} => match __inner {{\n\
                     ::serde::Value::Array(__items) if __items.len() == {arity} =>\n\
                         ::std::result::Result::Ok({name}::{vn}({inits})),\n\
                     other => ::std::result::Result::Err(\
                         ::serde::DeError::expected(\"{name}::{vn}\", other)),\n\
                 }},"
            )
        }
        VariantShape::Named(fields) => {
            let ty = format!("{name}::{vn}");
            let inits = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(\
                         ::serde::__private::field(__vfields, {f:?}, {ty:?})?)?,"
                    )
                })
                .collect::<Vec<_>>()
                .join("\n");
            format!(
                "{vn:?} => {{\n\
                     let __vfields = ::serde::__private::as_object(__inner, {ty:?})?;\n\
                     ::std::result::Result::Ok({name}::{vn} {{ {inits} }})\n\
                 }},"
            )
        }
    }
}
