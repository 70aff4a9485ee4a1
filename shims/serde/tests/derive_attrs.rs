//! The derive's field attributes: `#[serde(default)]`,
//! `#[serde(default = "path")]` and `#[serde(skip_serializing_if = "path")]`.

use serde::{Deserialize, Serialize, Value};

fn ten() -> u32 {
    10
}

fn is_unset(name: &str) -> bool {
    name == "unset"
}

fn unset() -> String {
    "unset".to_string()
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Sparse {
    /// Always present.
    id: u32,
    /// Documented and defaulted: the doc comment sits beside the attribute.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    tags: Vec<u32>,
    #[serde(default = "ten")]
    limit: u32,
    /// A `fn(&str)` predicate on a `String` field (deref coercion).
    #[serde(default = "unset", skip_serializing_if = "is_unset")]
    label: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    parent: Option<u32>,
    last: bool,
}

fn parse(json: &str) -> Result<Sparse, serde::DeError> {
    Sparse::from_value(&Value::parse_json(json)?)
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected object, got {other:?}"),
    }
}

#[test]
fn missing_keys_take_default_or_path() {
    let s = parse(r#"{"id": 1, "last": true}"#).unwrap();
    assert_eq!(
        s,
        Sparse {
            id: 1,
            tags: Vec::new(),
            limit: 10,
            label: "unset".to_string(),
            parent: None,
            last: true,
        }
    );
}

#[test]
fn present_keys_override_defaults() {
    let json = r#"{"id":2,"tags":[3,4],"limit":5,"label":"x","parent":6,"last":false}"#;
    let s = parse(json).unwrap();
    assert_eq!(s.tags, [3, 4]);
    assert_eq!((s.limit, s.label.as_str(), s.parent), (5, "x", Some(6)));
    assert_eq!(s.to_value().to_json(), json);
}

#[test]
fn explicit_null_on_a_defaulted_option_is_none() {
    let s = parse(r#"{"id": 1, "parent": null, "last": true}"#).unwrap();
    assert_eq!(s.parent, None);
}

#[test]
fn skipped_fields_are_absent_and_round_trip() {
    let s = Sparse {
        id: 7,
        tags: Vec::new(),
        limit: 10,
        label: "unset".to_string(),
        parent: None,
        last: false,
    };
    let json = s.to_value().to_json();
    // `limit` has a default but no skip predicate, so it stays.
    assert_eq!(json, r#"{"id":7,"limit":10,"last":false}"#);
    assert_eq!(parse(&json).unwrap(), s);
}

#[test]
fn key_order_is_declaration_order_minus_skipped_keys() {
    let mut s = parse(r#"{"id": 1, "last": true}"#).unwrap();
    assert_eq!(keys(&s.to_value()), ["id", "limit", "last"]);
    s.parent = Some(0);
    s.tags = vec![1];
    assert_eq!(
        keys(&s.to_value()),
        ["id", "tags", "limit", "parent", "last"]
    );
    s.label = "set".to_string();
    assert_eq!(
        keys(&s.to_value()),
        ["id", "tags", "limit", "label", "parent", "last"]
    );
}

#[test]
fn missing_required_field_names_field_and_type() {
    let err = parse(r#"{"id": 1}"#).unwrap_err();
    assert_eq!(err.to_string(), "missing field `last` in Sparse");
}

#[test]
fn non_object_input_is_rejected() {
    assert!(parse("[1, 2]").is_err());
}
