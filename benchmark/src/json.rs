//! Read accessors over `tc_obs::JsonValue` (which only builds, renders
//! and parses). Lookups return `Option`; the typed views fall back to
//! an empty/NaN value so a malformed result file shows up as a failed
//! comparison, not a panic.

use tc_obs::JsonValue;

/// Member `key` of an object.
pub fn get<'a>(v: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match v {
        JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Member at a `/`-separated path of nested objects.
pub fn path<'a>(v: &'a JsonValue, keys: &[&str]) -> Option<&'a JsonValue> {
    keys.iter().try_fold(v, |v, k| get(v, k))
}

/// The `(key, value)` pairs of an object (empty for anything else).
pub fn members(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Obj(pairs) => pairs,
        _ => &[],
    }
}

/// The items of an array (empty for anything else).
pub fn items(v: &JsonValue) -> &[JsonValue] {
    match v {
        JsonValue::Arr(items) => items,
        _ => &[],
    }
}

/// A number (`NaN` for anything else).
pub fn as_f64(v: &JsonValue) -> f64 {
    match v {
        JsonValue::Num(x) => *x,
        _ => f64::NAN,
    }
}

/// A string (empty for anything else).
pub fn as_str(v: &JsonValue) -> &str {
    match v {
        JsonValue::Str(s) => s,
        _ => "",
    }
}

/// A `u64` — a hash, or an `f64`'s bit pattern — as a JSON string
/// (`0x…`): a JSON number would lose bits, and numbers that must repeat
/// bit-for-bit are compared as text, never as floats.
pub fn hex(h: u64) -> JsonValue {
    JsonValue::str(format!("{h:#018x}"))
}
