//! Attribute values.
//!
//! The paper's graphs carry constants on node attributes (`F_A(v)`;
//! §2). Knowledge-graph constants are strings, ids and numbers, so
//! [`Value`] covers strings, integers and booleans. Equality between
//! values of different kinds is `false` (never an error), matching the
//! paper's treatment of literals as equality atoms over constants.

use std::fmt;
use std::sync::Arc;

/// A constant attribute value.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A string constant (shared; values in knowledge graphs repeat a lot).
    Str(Arc<str>),
    /// A 64-bit integer constant.
    Int(i64),
    /// A boolean constant (`is_fake = true` in Example 1).
    Bool(bool),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }

    /// Returns the string content if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes, used by the communication
    /// cost model of the cluster runtime (§6.2's `cs * |M|`).
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Str(s) => s.len() + 1,
            Value::Int(_) => 8,
            Value::Bool(_) => 1,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_kind_equality_is_false() {
        assert_ne!(Value::str("1"), Value::Int(1));
        assert_ne!(Value::Bool(true), Value::str("true"));
    }

    #[test]
    fn display_round_trip_for_strings() {
        let v = Value::str("Edi");
        assert_eq!(v.to_string(), "Edi");
        assert_eq!(v.as_str(), Some("Edi"));
    }

    #[test]
    fn wire_size_is_positive() {
        for v in [Value::str("x"), Value::Int(0), Value::Bool(false)] {
            assert!(v.wire_size() > 0);
        }
    }
}
