//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no crates.io access, so this crate provides the
//! subset of serde the workspace actually uses: `Serialize` / `Deserialize`
//! traits (modelled as conversions to and from a JSON-like [`Value`] tree
//! rather than serde's visitor machinery) plus `#[derive(Serialize,
//! Deserialize)]` macros that mirror serde's data formats — structs as
//! objects, newtype structs as their inner value, unit enum variants as
//! strings and newtype variants as single-key objects (externally tagged).
//!
//! The companion `serde_json` stub renders [`Value`] to JSON text and back,
//! so JSON written by real serde for these shapes deserializes here
//! unchanged, and vice versa.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap, VecDeque};

/// A JSON-like value tree: the data model both traits convert through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    U128(u128),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object (field order follows struct declaration).
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization into the [`Value`] data model.
pub trait Serialize {
    fn serialize(&self) -> Value;
}

/// Deserialization out of the [`Value`] data model.
pub trait Deserialize: Sized {
    fn deserialize(value: &Value) -> Result<Self, Error>;
}

/// Fetch and deserialize a required struct field (used by the derive macro).
pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, Error> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize(v),
        None => Err(Error::new(format!("missing field `{name}`"))),
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let n = match *value {
                    Value::U64(n) => n,
                    Value::I64(n) if n >= 0 => n as u64,
                    Value::U128(n) if n <= u64::MAX as u128 => n as u64,
                    ref other => return Err(Error::new(format!(
                        "expected unsigned integer, found {other:?}"
                    ))),
                };
                <$t>::try_from(n).map_err(|_| Error::new(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let n = match *value {
                    Value::I64(n) => n,
                    Value::U64(n) if n <= i64::MAX as u64 => n as i64,
                    ref other => return Err(Error::new(format!(
                        "expected integer, found {other:?}"
                    ))),
                };
                <$t>::try_from(n).map_err(|_| Error::new(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for u128 {
    fn serialize(&self) -> Value {
        Value::U128(*self)
    }
}

impl Deserialize for u128 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match *value {
            Value::U128(n) => Ok(n),
            Value::U64(n) => Ok(u128::from(n)),
            Value::I64(n) if n >= 0 => Ok(n as u128),
            ref other => Err(Error::new(format!("expected u128, found {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        // Mirror serde_json: non-finite floats become null.
        if self.is_finite() {
            Value::F64(*self)
        } else {
            Value::Null
        }
    }
}

impl Deserialize for f64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match *value {
            Value::F64(f) => Ok(f),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            Value::U128(n) => Ok(n as f64),
            ref other => Err(Error::new(format!("expected float, found {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        (f64::from(*self)).serialize()
    }
}

impl Deserialize for f32 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        f64::deserialize(value).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::new(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for &str {
    fn serialize(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let s = String::deserialize(value)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::new("expected single-character string")),
        }
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::new(format!("expected array, found {value:?}")))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Vec::<T>::deserialize(value).map(VecDeque::from)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(value)?;
        if items.len() != N {
            return Err(Error::new(format!(
                "expected array of length {N}, found {}",
                items.len()
            )));
        }
        let mut out = [T::default(); N];
        out.copy_from_slice(&items);
        Ok(out)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self) -> Value {
        Value::Array(vec![self.0.serialize(), self.1.serialize()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value.as_array() {
            Some([a, b]) => Ok((A::deserialize(a)?, B::deserialize(b)?)),
            _ => Err(Error::new("expected two-element array")),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self) -> Value {
        Value::Array(vec![
            self.0.serialize(),
            self.1.serialize(),
            self.2.serialize(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value.as_array() {
            Some([a, b, c]) => Ok((A::deserialize(a)?, B::deserialize(b)?, C::deserialize(c)?)),
            _ => Err(Error::new("expected three-element array")),
        }
    }
}

/// Map keys must render to JSON object keys (strings); integer-like keys are
/// stringified exactly as serde_json does.
fn key_to_string(key: &Value) -> Result<String, Error> {
    match key {
        Value::Str(s) => Ok(s.clone()),
        Value::U64(n) => Ok(n.to_string()),
        Value::I64(n) => Ok(n.to_string()),
        Value::U128(n) => Ok(n.to_string()),
        other => Err(Error::new(format!("unsupported map key {other:?}"))),
    }
}

fn key_from_string<K: Deserialize>(key: &str) -> Result<K, Error> {
    // Try the key as a string first, then as an integer (serde_json's
    // integer-keyed maps round-trip through stringified keys).
    if let Ok(k) = K::deserialize(&Value::Str(key.to_string())) {
        return Ok(k);
    }
    if let Ok(n) = key.parse::<u64>() {
        if let Ok(k) = K::deserialize(&Value::U64(n)) {
            return Ok(k);
        }
    }
    if let Ok(n) = key.parse::<i64>() {
        if let Ok(k) = K::deserialize(&Value::I64(n)) {
            return Ok(k);
        }
    }
    Err(Error::new(format!("cannot deserialize map key `{key}`")))
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| {
                (
                    key_to_string(&k.serialize()).expect("map key"),
                    v.serialize(),
                )
            })
            .collect();
        // Deterministic output regardless of hash order.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_object()
            .ok_or_else(|| Error::new("expected object for map"))?
            .iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::deserialize(v)?)))
            .collect()
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| {
                    (
                        key_to_string(&k.serialize()).expect("map key"),
                        v.serialize(),
                    )
                })
                .collect(),
        )
    }
}

impl<K, V> Deserialize for BTreeMap<K, V>
where
    K: Deserialize + Ord,
    V: Deserialize,
{
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_object()
            .ok_or_else(|| Error::new("expected object for map"))?
            .iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::deserialize(v)?)))
            .collect()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        T::deserialize(value).map(Box::new)
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}
